let nowhere x = x + 1
let test_only x = x + 2
let by_exe x = x + 3
let via_alias x = x + 4
let suppressed x = x + 5
let stale x = x + 6
