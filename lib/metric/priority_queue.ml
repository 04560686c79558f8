(* Entry [i] is element [elt.(i)] pushed at priority [prio.(i)]. Heap
   order is (priority, element) lexicographic, so pops are deterministic
   under equal priorities. Sifts move a hole instead of swapping, and
   every float stays in a local or in [prio]: nothing is boxed. *)
type t = {
  mutable prio : float array;
  mutable elt : int array;
  mutable size : int;
}

let initial_capacity = 16

let create () =
  { prio = Array.make initial_capacity 0.0;
    elt = Array.make initial_capacity 0;
    size = 0 }

let clear h = h.size <- 0

let grow h =
  let capacity = Array.length h.prio in
  let prio = Array.make (2 * capacity) 0.0 in
  let elt = Array.make (2 * capacity) 0 in
  Array.blit h.prio 0 prio 0 h.size;
  Array.blit h.elt 0 elt 0 h.size;
  h.prio <- prio;
  h.elt <- elt

let push h key x =
  if h.size = Array.length h.prio then grow h;
  let p = key.(x) in
  let prio = h.prio and elt = h.elt in
  let i = ref h.size in
  h.size <- h.size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = prio.(parent) and pe = elt.(parent) in
    if p < pp || (Float.equal p pp && x < pe) then begin
      prio.(!i) <- pp;
      elt.(!i) <- pe;
      i := parent
    end
    else moving := false
  done;
  prio.(!i) <- p;
  elt.(!i) <- x

(* Removes the root: the last entry sifts down from the root's hole. *)
let remove_min h =
  let last = h.size - 1 in
  h.size <- last;
  if last > 0 then begin
    let prio = h.prio and elt = h.elt in
    let p = prio.(last) and x = elt.(last) in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= last then moving := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < last
            && (prio.(r) < prio.(l)
               || (Float.equal prio.(r) prio.(l) && elt.(r) < elt.(l)))
          then r
          else l
        in
        let pc = prio.(c) and ec = elt.(c) in
        if pc < p || (Float.equal pc p && ec < x) then begin
          prio.(!i) <- pc;
          elt.(!i) <- ec;
          i := c
        end
        else moving := false
      end
    done;
    prio.(!i) <- p;
    elt.(!i) <- x
  end

let pop h key =
  let found = ref (-1) in
  while !found < 0 && h.size > 0 do
    let x = h.elt.(0) in
    let live = h.prio.(0) <= key.(x) in
    remove_min h;
    if live then found := x
  done;
  !found
