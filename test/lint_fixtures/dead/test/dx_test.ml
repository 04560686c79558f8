let check () = Cr_dead_fixture.Dx_api.test_only 0 = 2
