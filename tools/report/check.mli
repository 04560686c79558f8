(** Validate a report against the paper's bound formulas.

    Each row measuring one of the paper's four schemes (recognized by the
    theorem tag in its scheme name) is checked against the corresponding
    claims of Konjevod–Richa–Xia, with the empirical slack documented in
    EXPERIMENTS.md:

    - name-independent (Thm 1.1 / Thm 1.4): [stretch.max <= 9 + eps +
      2/eps] — the 9 + O(eps) ceiling plus the level-0 directory-descent
      term short pairs pay on small instances (E7);
    - labeled (Lemma 3.1 / Thm 1.2): [stretch.max <= 1 + 2 eps];
    - labels: [label_bits = ceil(log2 n)] exactly (labeled schemes);
    - table growth: Delta-carrying schemes (Lemma 3.1, Thm 1.4) within
      [512 log2 n (log2 n + max 1 (log2 Delta))] bits, scale-free ones
      (Thm 1.2, Thm 1.1) within [128 (log2 n)^3] bits — generous
      constants (3-4x the committed baselines) that still catch a
      polynomial drift;
    - [fallback_count], wherever a row records it, must be 0: the
      netting-descent fallback is a safety net the theorems never
      exercise.

    Rows for baselines or without the required fields are skipped. *)

type finding = {
  ok : bool;
  path : string;  (** ["family/scheme/rule"] *)
  message : string;
}

(** [check_report ?epsilon report] checks every recognizable row
    ([epsilon] defaults to 0.5, the harness default). *)
val check_report : ?epsilon:float -> Json.t -> finding list

(** [is_manifest j] is true for a run's [BENCH_manifest.json]
    (["kind":"manifest"]): it records the run, has no rows, and is not
    checked. *)
val is_manifest : Json.t -> bool

val all_ok : finding list -> bool

(** One line per finding, [ok]/[VIOLATION]-prefixed, deterministic. *)
val render_human : finding list -> string
