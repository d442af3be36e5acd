(* Shared per-process test setup.

   The CI workflow runs the whole suite twice, at BENCH_JOBS=1 and
   BENCH_JOBS=4, so every byte-determinism property is exercised both
   with and without a default domain pool installed.  Each test
   executable calls [install_pool_from_env] before [Alcotest.run]. *)

let qcheck_count base =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | None -> base
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some m when m >= 1 -> base * m
      | _ -> base)

let install_pool_from_env () =
  match Sys.getenv_opt "BENCH_JOBS" with
  | None -> ()
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some jobs when jobs > 1 ->
          let pool = Dm_linalg.Pool.create ~jobs in
          Dm_linalg.Pool.set_default (Some pool);
          at_exit (fun () -> Dm_linalg.Pool.shutdown pool)
      | _ -> ())

(* The leading minor collection empties the young heap, so a small [f]
   runs without a collection inside the window; one that does collect
   skews the counters by up to a minor heap's worth of words. *)
let allocated_words f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  let v = f () in
  let minor1, promoted1, major1 = Gc.counters () in
  (v, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
