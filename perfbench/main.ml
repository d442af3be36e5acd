(* The repo benchmark: one workload per run, on one domain, in a closed
   loop (one caller; the next request goes in after the previous
   decision).  Usage:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   A run sets up its inputs several times before the first pass
   (setup_s is the median), then repeats identical passes from fresh
   mechanism and store state for S seconds.  Every pass makes the same
   decisions, so each decision's latency and each timed segment of a
   pass can be compared across passes: the timings keep each index's
   minimum over the passes (Util.Mins; README.md says why).  Throughput
   is the rounds of a pass over the sum of its segments' minima; the
   latency percentiles come from the decisions' minima.  --trace 1 adds
   three traced passes and prints the per-layer metrics instead of the
   end-to-end ones.  The last line of standard output is the JSON
   result; the exit code is 1 when a correctness check failed and 2
   when no result could be formed. *)

open Common

let workloads : (module WORKLOAD) list =
  [ (module Serve_hd); (module Broker_loads.App3_sparse); (module Broker_loads.App1_durable) ]

let setups = 7
let min_passes = 5
let traced_passes = 3

(* Stop adding passes past this point so a run ends within 180 s even on
   a slow host; the percentile rule then decides whether it counts. *)
let hard_cap_s = 120.

(* The p99 needs 10 independent samples beyond it, 1000 in all.  The
   latency minima are kept in as many groups of passes as it takes to
   pool that many. *)
let latency_groups (module W : WORKLOAD) =
  let independent = W.rounds / W.group in
  (1000 + independent - 1) / independent

let run (module W : WORKLOAD) ~seed ~seconds ~trace =
  let dir = Printf.sprintf ".perfbench-tmp-%d" (Unix.getpid ()) in
  at_exit (fun () -> rm_rf dir);
  let steal0 = steal_ticks () in
  (* Each set-up starts from the same collected heap and builds the same
     inputs from the seed; the passes use the last. *)
  let inst = ref None in
  let setup_times =
    Array.init setups (fun i ->
        inst := None;
        Gc.full_major ();
        let t0 = Util.now_ns () in
        inst := Some (W.setup ~seed);
        let s = Util.seconds_since t0 in
        Printf.eprintf "setup %d: %.4f s\n%!" i s;
        s)
  in
  let inst = Option.get !inst in
  (* The earlier set-ups' garbage is collected before timing starts. *)
  Gc.compact ();
  let groups = latency_groups (module W) in
  let lat = Util.Mins.create ~groups W.rounds in
  let seg = Util.Mins.create ~groups:1 W.segments in
  let passes = ref [] and count = ref 0 in
  let rate p = float_of_int p.rounds /. p.seconds in
  let start = Util.now_ns () in
  let quantile h p =
    match Util.Hist.quantile h ~p ~group:W.group with
    | Ok ns -> ns /. 1e3
    | Error msg ->
        prerr_endline ("perfbench: " ^ msg);
        exit 2
  in
  let enough () =
    !count >= max min_passes groups && Util.seconds_since start >= float_of_int seconds
  in
  while (not (enough ())) && Util.seconds_since start < hard_cap_s do
    let pass = !count in
    (* Every pass starts from a collected heap, so the major GC's work
       falls at the same points of every pass. *)
    Gc.full_major ();
    let p =
      W.pass inst ~dir
        ~lat:(fun i ns -> Util.Mins.add lat ~pass i ns)
        ~seg:(fun j ns -> Util.Mins.add seg ~pass j ns)
    in
    Printf.eprintf "pass %d: %.0f rounds/s at %.1f s\n%!" pass (rate p)
      (Util.seconds_since start);
    passes := p :: !passes;
    incr count
  done;
  let passes = Array.of_list (List.rev !passes) in
  let reference = passes.(0) in
  let fails p = not (same_decisions reference p && p.recover_ok) in
  let attempted = ref 0 and failed = ref 0 in
  let tally p =
    attempted := !attempted + p.rounds;
    if fails p then failed := !failed + p.rounds
  in
  Array.iter tally passes;
  let over_passes f ~p = Util.quantile (Array.map f passes) ~p in
  let metrics =
    if trace then begin
      (* The median of each per-layer figure over a few traced passes. *)
      let trs =
        List.init traced_passes (fun _ ->
            W.traced inst ~dir ~e2e_ns:(1e9 /. over_passes rate ~p:0.5))
      in
      List.iter
        (fun tr ->
          tally tr.tpass;
          if not (same_decisions reference tr.tpass && tr.tpass.recover_ok) then
            prerr_endline "perfbench: the traced pass decided differently")
        trs;
      let last = passes.(Array.length passes - 1) in
      let st = Gc.quick_stat () in
      List.map
        (fun (name, _) ->
          ( name,
            Util.median
              (Array.of_list (List.map (fun tr -> List.assoc name tr.layers) trs)) ))
        (List.hd trs).layers
      @ [
          ( "gc.minor_collections_per_kround",
            float_of_int last.minor_collections *. 1e3 /. float_of_int last.rounds );
          ("gc.major_collections", float_of_int last.major_collections);
          ( "gc.top_heap_mb",
            float_of_int st.Gc.top_heap_words *. 8. /. 1048576. );
        ]
    end
    else
      [
        ("rounds_per_s", float_of_int W.rounds /. (float_of_int (Util.Mins.sum seg) *. 1e-9));
        ("latency_p50_us", quantile (Util.Mins.overall lat) 0.5);
        ("latency_p99_us", quantile (Util.Mins.grouped lat) 0.99);
        ("regret_ratio", reference.regret /. reference.value);
        ("setup_s", Util.median setup_times);
        ("peak_rss_mb", peak_rss_mb ());
        ( "minor_words_per_round",
          over_passes (fun p -> p.minor_words /. float_of_int p.rounds) ~p:0.5 );
        ("recover_s", over_passes (fun p -> p.recover_s) ~p:0.);
      ]
  in
  Printf.printf
    "# run: workload=%s seed=%d seconds=%d trace=%b passes=%d \
     rounds_per_pass=%d latency_groups=%d cores=%d domains=1 ocaml=%s \
     git_rev=%s steal_ticks=%d\n"
    W.name seed seconds trace (Array.length passes) reference.rounds groups
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (git_rev ())
    (steal_ticks () - steal0);
  List.iter
    (fun (name, v) -> Printf.printf "%-40s %16.6g %s\n" name v (Util.unit_of name))
    metrics;
  let correct = !failed = 0 in
  match
    Util.result_line
      ~kind:(if trace then Util.Per_layer else Util.End_to_end)
      ~correct ~attempted:!attempted ~failed:!failed metrics
  with
  | Ok line ->
      print_endline line;
      if not correct then exit 1
  | Error msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME serve_hd | app3_sparse | app1_durable");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S seconds of timed passes");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics from a traced pass");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match
    List.find_opt (fun (module W : WORKLOAD) -> W.name = !workload) workloads
  with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  | Some w when !trace = 0 || !trace = 1 ->
      run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  | Some _ ->
      prerr_endline "perfbench: --trace takes 0 or 1";
      exit 2
