let log2_factorial n =
  let total = ref 0.0 in
  for k = 2 to n do
    total := !total +. Float.log2 (float_of_int k)
  done;
  !total

let log2_congruent_bound ~n ~beta ~c ~i =
  log2_factorial n
  -. (beta *. Float.pow (float_of_int n) (float_of_int i /. float_of_int c))

let table_bits_bound ~n ~epsilon =
  Float.pow (float_of_int n) ((epsilon /. 60.0) ** 2.0)

let factorial n =
  let rec go acc k = if k <= 1 then acc else go (acc * k) (k - 1) in
  go 1 n

(* Enumerate permutations of [0, n) in lexicographic order, applying f. *)
let iter_permutations n f =
  let arr = Array.init n Fun.id in
  let next_permutation () =
    (* standard in-place lexicographic successor; returns false at the end *)
    let i = ref (n - 2) in
    while !i >= 0 && arr.(!i) >= arr.(!i + 1) do
      decr i
    done;
    if !i < 0 then false
    else begin
      let j = ref (n - 1) in
      while arr.(!j) <= arr.(!i) do
        decr j
      done;
      let tmp = arr.(!i) in
      arr.(!i) <- arr.(!j);
      arr.(!j) <- tmp;
      let lo = ref (!i + 1) and hi = ref (n - 1) in
      while !lo < !hi do
        let tmp = arr.(!lo) in
        arr.(!lo) <- arr.(!hi);
        arr.(!hi) <- tmp;
        incr lo;
        decr hi
      done;
      true
    end
  in
  let continue = ref true in
  while !continue do
    f (Array.copy arr);
    continue := next_permutation ()
  done

let demonstrate_pigeonhole ~n ~beta_bits ~prefix ~config =
  if n > 8 then invalid_arg "Naming.demonstrate_pigeonhole: n must be <= 8";
  if prefix < 1 || prefix > n then
    invalid_arg "Naming.demonstrate_pigeonhole: bad prefix";
  let mask = (1 lsl beta_bits) - 1 in
  let buckets = Hashtbl.create 1024 in
  iter_permutations n (fun naming ->
      (* the configuration signature over the prefix nodes *)
      let signature =
        List.init prefix (fun v -> config naming v land mask)
      in
      let count =
        match Hashtbl.find_opt buckets signature with
        | Some r -> r
        | None ->
          let r = ref 0 in
          Hashtbl.replace buckets signature r;
          r
      in
      incr count);
  Hashtbl.fold (fun _ r acc -> max acc !r) buckets 0

let lemma54_floor ~n ~beta_bits ~prefix =
  let configurations = 1 lsl (beta_bits * prefix) in
  (factorial n + configurations - 1) / configurations
