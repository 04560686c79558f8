type finding = {
  ok : bool;
  path : string;
  message : string;
}

type scheme_class =
  | Name_independent  (* Thm 1.1, Thm 1.4: stretch 9 + O(eps) *)
  | Labeled  (* Lemma 3.1, Thm 1.2: stretch 1 + O(eps) *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* (class, carries a log Delta factor in its tables?) *)
let classify scheme =
  if contains ~needle:"Thm 1.4" scheme then Some (Name_independent, true)
  else if contains ~needle:"Thm 1.1" scheme then Some (Name_independent, false)
  else if contains ~needle:"Lemma 3.1" scheme then Some (Labeled, true)
  else if contains ~needle:"Thm 1.2" scheme then Some (Labeled, false)
  else None

let log2 x = Float.log x /. Float.log 2.0

let check_row ~epsilon row =
  let str k = match Json.member k row with Some (Json.Str s) -> s | _ -> "" in
  let metric k =
    match Json.member "metrics" row with
    | Some m -> (
      match Json.member k m with Some (Json.Num f) -> Some f | _ -> None)
    | None -> None
  in
  let key rule = str "family" ^ "/" ^ str "scheme" ^ "/" ^ rule in
  let bound rule value limit detail =
    { ok = value <= limit;
      path = key rule;
      message =
        Printf.sprintf "%s: %.3f <= %.3f%s"
          (if value <= limit then "within bound" else "EXCEEDS bound")
          value limit detail }
  in
  (* E19 CONGEST sanity: any row carrying cost.* metrics (one distributed
     construction run under Cr_obs.Cost accounting) must look like a
     flood-bounded protocol — rounds near (Delta x log Delta), messages
     within a constant of the n*m-per-level flood bound, bits a bounded
     multiple of messages — and the accounting layer must agree exactly
     with the simulator's own delivery count. *)
  let cost_findings =
    match metric "cost.rounds" with
    | None -> []
    | Some rounds -> (
      match
        ( metric "n", metric "delta", metric "edges",
          metric "cost.messages", metric "cost.bits",
          metric "network.messages" )
      with
      | Some nf, Some delta, Some m, Some msgs, Some bits, Some net ->
        let lg = Float.max 1.0 (log2 delta) in
        let conserved = Float.equal msgs net in
        [ bound "congest-rounds" rounds
            (4.0 *. (delta +. 2.0) *. (lg +. 2.0))
            " (4 (Delta+2) (log Delta + 2))";
          bound "congest-messages" msgs
            (2.0 *. nf *. m *. (lg +. 2.0))
            " (2 n m (log Delta + 2))";
          bound "congest-bits" bits (256.0 *. msgs) " (256 bits/message)";
          { ok = conserved;
            path = key "congest-conservation";
            message =
              Printf.sprintf "%s: cost.messages %d %s network.messages %d"
                (if conserved then "accounting conserved"
                 else "ACCOUNTING DRIFT")
                (int_of_float msgs)
                (if conserved then "=" else "<>")
                (int_of_float net) } ]
      | _ ->
        [ { ok = false;
            path = key "congest-skip";
            message = "cost.* row lacks n/delta/edges/messages metrics" } ])
  in
  let fallback_findings =
    match metric "fallback_count" with
    | Some f ->
      [ { ok = Float.equal f 0.0;
          path = key "fallback";
          message =
            (if Float.equal f 0.0 then "fallback never exercised"
             else Printf.sprintf "fallback exercised %d times" (int_of_float f)) } ]
    | None -> []
  in
  (* E20 serving gates: a row carrying serve.* metrics came from the
     compiled-table engine, and the equivalence contract is exact — the
     served workload's outcomes matched the walker's bit for bit
     (stretch_identical 1.0, nothing less), and the flat lookup path
     allocated zero minor words. *)
  let serve_findings =
    let identical =
      match metric "serve.stretch_identical" with
      | None -> []
      | Some v ->
        [ { ok = Float.equal v 1.0;
            path = key "serve-identical";
            message =
              (if Float.equal v 1.0 then "served routes = walker routes"
               else "SERVED ROUTES DIVERGE from walker routes") } ]
    in
    let alloc =
      match metric "serve.alloc_words" with
      | None -> []
      | Some w ->
        [ { ok = Float.equal w 0.0;
            path = key "serve-alloc";
            message =
              (if Float.equal w 0.0 then "lookup path allocation-free"
               else
                 Printf.sprintf "LOOKUP PATH ALLOCATES: %.0f minor words" w) } ]
    in
    identical @ alloc
  in
  (* E21 brownout gates: a row carrying zipf.alpha is one failure tier of
     Zipf traffic through the Thm 1.4 failover scheme, watched by
     Cr_obs.Live. Three contracts: (1) conservation — the Live edge
     totals must equal the Cost ledger's per-edge message sum exactly
     (same walker, two accountants); (2) a delivery-rate floor per tier,
     anchored at half the uniform-traffic E18c curve (skew may redraw
     which routes die, but not collapse delivery); (3) a p99 stretch
     ceiling from the 9 + eps + 2/eps bound — delivered routes keep the
     guarantee with 3% slack on an intact graph, and failovers may pay
     at most a 3x detour multiple over it. *)
  let brownout_findings =
    match metric "zipf.alpha" with
    | None -> []
    | Some _ -> (
      match
        ( metric "fault.edge_rate", metric "fault.node_fraction",
          metric "delivery.rate", metric "stretch.p99",
          metric "live.edge_messages", metric "cost.edge_messages" )
      with
      | Some er, Some nfrac, Some rate, Some p99, Some lem, Some cem ->
        let conserved = Float.equal lem cem in
        let conservation =
          { ok = conserved;
            path = key "brownout-conservation";
            message =
              Printf.sprintf "%s: live.edge_messages %d %s cost.edge_messages %d"
                (if conserved then "edge accounting conserved"
                 else "EDGE ACCOUNTING DRIFT")
                (int_of_float lem)
                (if conserved then "=" else "<>")
                (int_of_float cem) }
        in
        let intact = Float.equal er 0.0 && Float.equal nfrac 0.0 in
        let floor_finding =
          let e18_anchor =
            (* E18c delivery under uniform traffic at the same failure
               sets (BENCH_e18.json); an intact graph must deliver all. *)
            if intact then Some 1.0
            else
              List.assoc_opt
                (str "family", er, nfrac)
                [ (("geo-1024", 0.01, 0.0), 0.77);
                  (("geo-1024", 0.02, 0.02), 0.1395);
                  (("grid-32x32", 0.01, 0.0), 0.6205);
                  (("grid-32x32", 0.02, 0.02), 0.202) ]
          in
          match e18_anchor with
          | None -> []
          | Some anchor ->
            let floor = if intact then 1.0 else anchor /. 2.0 in
            [ { ok = rate >= floor;
                path = key "brownout-delivery";
                message =
                  Printf.sprintf "%s: %.3f >= %.3f (%s)"
                    (if rate >= floor then "delivery above floor"
                     else "DELIVERY BELOW floor")
                    rate floor
                    (if intact then "intact graph delivers all"
                     else
                       Printf.sprintf "half the uniform E18c rate %.3f" anchor) } ]
        in
        let ni_bound = 9.0 +. epsilon +. (2.0 /. epsilon) in
        let p99_findings =
          if intact then
            [ bound "brownout-p99" p99 (ni_bound *. 1.03)
                (Printf.sprintf " (1.03 (9 + eps + 2/eps) at eps=%.2f)"
                   epsilon) ]
          else
            [ bound "brownout-p99" p99 (ni_bound *. 3.0)
                (Printf.sprintf " (3x failover detours over 9 + eps + 2/eps)") ]
        in
        (conservation :: floor_finding) @ p99_findings
      | _ ->
        [ { ok = false;
            path = key "brownout-skip";
            message =
              "zipf.alpha row lacks fault/delivery/stretch/edge metrics" } ])
  in
  (* E22 scale gates: a row carrying scale.settled came from the sampled
     oracle harness (Cr_scale.Eval) on a graph too large for the dense
     matrix. Three contracts: (1) the work receipt — nodes settled during
     evaluation stay under the declared n * sources * (levels + 3)
     budget, the proof that nothing O(n^2) was built; (2) sampled stretch
     quantiles respect the scheme's own ceiling — exactly 3 for the
     Thorup–Zwick landmark baseline (a hair of float-sum slack: route
     and denominator are independently rounded path sums), and
     3 + (12e + 4)/(1 - e) at e = min(epsilon, 2/5) for the zooming cost
     model (the Theorem 1.4 telescoping bound, derived in
     lib/scale/zoom_scale.mli); (3) when the zooming directory was swept
     exactly (table_bits.sampled = 0), its *average* table bits fit the
     polylog budget against the recorded diameter upper bound — the
     paper's amortized guarantee: per-node directories are ball-sized,
     but balls overlap only a packing constant per level, so the mean is
     O(log n (log n + log Delta)). *)
  let scale_findings =
    match metric "scale.settled" with
    | None -> []
    | Some settled -> (
      match (metric "scale.settled_budget", metric "stretch.max", metric "n")
      with
      | Some budget, Some stretch, Some nf ->
        let work =
          { ok = settled <= budget;
            path = key "scale-work";
            message =
              Printf.sprintf "%s: %d settled <= budget %d%s"
                (if settled <= budget then "oracle work within budget"
                 else "ORACLE WORK EXCEEDS budget")
                (int_of_float settled) (int_of_float budget)
                " (n sources (levels + 3))" }
        in
        let scheme = str "scheme" in
        let stretch_findings =
          if contains ~needle:"landmark-scale" scheme then
            [ bound "scale-stretch" stretch
                (3.0 *. (1.0 +. 1e-9))
                " (TZ stretch 3, float-sum slack)" ]
          else if contains ~needle:"zoom-scale" scheme then
            let e =
              Float.min
                (match metric "epsilon" with Some e -> e | None -> epsilon)
                0.4
            in
            [ bound "scale-stretch" stretch
                (3.0 +. (((12.0 *. e) +. 4.0) /. (1.0 -. e)))
                (Printf.sprintf " (3 + (12e + 4)/(1 - e) at e=%.2f)" e) ]
          else []
        in
        let bits_findings =
          match
            ( metric "table_bits.avg", metric "table_bits.sampled",
              metric "delta.ub" )
          with
          | Some bits, Some sampled, Some dub
            when Float.equal sampled 0.0
                 && contains ~needle:"zoom-scale" scheme ->
            let ln = log2 nf in
            [ bound "scale-bits-avg" bits
                (512.0 *. ln *. (ln +. Float.max 1.0 (log2 dub)))
                " (512 log n (log n + log Delta_ub), exact sweep)" ]
          | _ -> []
        in
        (work :: stretch_findings) @ bits_findings
      | _ ->
        [ { ok = false;
            path = key "scale-skip";
            message = "scale.settled row lacks budget/stretch/n metrics" } ])
  in
  let extra_findings =
    cost_findings @ fallback_findings @ serve_findings @ brownout_findings
    @ scale_findings
  in
  match classify (str "scheme") with
  | None -> extra_findings
  | Some (cls, carries_delta) -> (
    match (metric "stretch.max", metric "n", metric "delta") with
    | Some stretch, Some nf, Some delta ->
      let ln = log2 nf in
      let stretch_findings =
        match cls with
        | Name_independent ->
          [ bound "stretch" stretch
              (9.0 +. epsilon +. (2.0 /. epsilon))
              (Printf.sprintf " (9 + eps + 2/eps at eps=%.2f)" epsilon) ]
        | Labeled ->
          [ bound "stretch" stretch
              (1.0 +. (2.0 *. epsilon))
              (Printf.sprintf " (1 + 2 eps at eps=%.2f)" epsilon) ]
      in
      let table_findings =
        match metric "table_bits.max" with
        | None -> []
        | Some bits ->
          if carries_delta then
            bound "table-bits" bits
              (512.0 *. ln *. (ln +. Float.max 1.0 (log2 delta)))
              " (512 log n (log n + log Delta))"
            :: []
          else
            bound "table-bits" bits
              (128.0 *. (ln ** 3.0))
              " (128 log^3 n)"
            :: []
      in
      (* Compiled serving state obeys the same polylog storage budget as
         the scheme's own tables (the ring arenas are wire-exact, so this
         is the codec accounting under the paper's bound). *)
      let serve_bits_findings =
        match metric "serve.compiled_bits.max" with
        | None -> []
        | Some bits ->
          if carries_delta then
            [ bound "serve-bits" bits
                (512.0 *. ln *. (ln +. Float.max 1.0 (log2 delta)))
                " (512 log n (log n + log Delta))" ]
          else
            [ bound "serve-bits" bits (128.0 *. (ln ** 3.0)) " (128 log^3 n)" ]
      in
      let label_findings =
        match (cls, metric "label_bits") with
        | Labeled, Some lbits ->
          let expected = Float.ceil ln in
          [ { ok = Float.equal lbits expected;
              path = key "label-bits";
              message =
                Printf.sprintf "%s: %d %s ceil(log2 n) = %d"
                  (if Float.equal lbits expected then "optimal labels"
                   else "NON-OPTIMAL labels")
                  (int_of_float lbits)
                  (if Float.equal lbits expected then "=" else "<>")
                  (int_of_float expected) } ]
        | _ -> []
      in
      stretch_findings @ table_findings @ serve_bits_findings @ label_findings
      @ extra_findings
    | _ ->
      { ok = true;
        path = key "skip";
        message = "row lacks stretch.max/n/delta; skipped" }
      :: extra_findings)

let check_report ?(epsilon = 0.5) report =
  match Json.member "rows" report with
  | Some (Json.Arr rows) -> List.concat_map (check_row ~epsilon) rows
  | _ -> [ { ok = false; path = "rows"; message = "no rows: not a report file" } ]

let is_manifest j =
  match Json.member "kind" j with
  | Some (Json.Str "manifest") -> true
  | _ -> false

let all_ok findings = List.for_all (fun f -> f.ok) findings

let render_human findings =
  if findings = [] then "no checkable rows\n"
  else
    String.concat ""
      (List.map
         (fun f ->
           Printf.sprintf "%-9s %s: %s\n"
             (if f.ok then "ok" else "VIOLATION")
             f.path f.message)
         findings)
