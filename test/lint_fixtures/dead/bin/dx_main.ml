module A = Cr_dead_fixture.Dx_api

let () =
  let open Cr_dead_fixture in
  print_int
    (Dx_api.by_exe 1 + A.via_alias 2 + Dx_wrap.included 3 + Dx_api.stale 4)
