(* clean: reached only as Dx_wrap.included, through Dx_wrap's include *)
val included : int -> int
