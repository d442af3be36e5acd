(* Tests for the benchmark's own helpers: the percentile rule, the
   aggregation over passes (quantiles and per-index minima), the
   metric-name grammar and the unit table. *)

let hist_of values =
  let h = Util.Hist.create () in
  List.iter (Util.Hist.add h) values;
  h

let repeat n v = List.init n (fun _ -> v)

let quantile_ok h ~p ~group =
  match Util.Hist.quantile h ~p ~group with
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let is_error = function Ok _ -> false | Error _ -> true

let percentile_rule () =
  (* p99 needs 10 independent samples beyond it: 1000 samples, not 999 *)
  let h999 = hist_of (List.init 999 (fun i -> i)) in
  Alcotest.(check bool) "999 samples refuse p99" true
    (is_error (Util.Hist.quantile h999 ~p:0.99 ~group:1));
  let h1000 = hist_of (List.init 1000 (fun i -> i)) in
  Alcotest.(check bool) "1000 samples give p99" false
    (is_error (Util.Hist.quantile h1000 ~p:0.99 ~group:1));
  Alcotest.(check bool) "20 samples give p50" false
    (is_error (Util.Hist.quantile (hist_of (List.init 20 Fun.id)) ~p:0.5 ~group:1));
  Alcotest.(check bool) "19 samples refuse p50" true
    (is_error (Util.Hist.quantile (hist_of (List.init 19 Fun.id)) ~p:0.5 ~group:1));
  (* grouped samples: 64 decisions per commit count once *)
  let grouped n = hist_of (List.init (64 * n) (fun i -> 1000 + i)) in
  Alcotest.(check bool) "999 batches refuse p99" true
    (is_error (Util.Hist.quantile (grouped 999) ~p:0.99 ~group:64));
  Alcotest.(check bool) "1000 batches give p99" false
    (is_error (Util.Hist.quantile (grouped 1000) ~p:0.99 ~group:64));
  Alcotest.(check bool) "p outside (0, 1) refused" true
    (is_error (Util.Hist.quantile h1000 ~p:1. ~group:1))

let quantile_values () =
  let h = hist_of (List.init 1000 (fun i -> i + 1)) in
  (* exact below 256 *)
  Alcotest.(check (float 0.)) "p10 of 1..1000" 100. (quantile_ok h ~p:0.1 ~group:1);
  let within v want = Float.abs (v -. want) <= 0.004 *. want in
  Alcotest.(check bool) "p50 of 1..1000" true (within (quantile_ok h ~p:0.5 ~group:1) 500.);
  Alcotest.(check bool) "p99 of 1..1000" true (within (quantile_ok h ~p:0.99 ~group:1) 990.);
  List.iter
    (fun v ->
      let got = quantile_ok (hist_of (repeat 100 v)) ~p:0.5 ~group:1 in
      if not (within got (float_of_int v)) then
        Alcotest.failf "value %d reads back as %g" v got)
    [ 0; 1; 255; 256; 257; 1_000; 4_095; 65_537; 1_234_567; 987_654_321; 1 lsl 50 ]

let allocation_free () =
  let h = Util.Hist.create () in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Util.Hist.add h (Util.now_ns ())
  done;
  let w = Gc.minor_words () -. w0 in
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words" w) true (w < 100.)

let aggregation () =
  Alcotest.(check (float 0.)) "odd median" 3. (Util.median [| 5.; 1.; 3. |]);
  Alcotest.(check (float 0.)) "even median" 2.5 (Util.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.(check (float 0.)) "single" 7. (Util.median [| 7. |]);
  Alcotest.(check (float 0.)) "one slow pass does not move the median" 10.
    (Util.median [| 10.; 10.; 1000.; 9.; 11. |]);
  (* the slow quartiles, as Python's statistics.quantiles(method='inclusive') *)
  let a = [| 7.; 1.; 5.; 3.; 9. |] in
  Alcotest.(check (float 0.)) "p25" 3. (Util.quantile a ~p:0.25);
  Alcotest.(check (float 0.)) "p75" 7. (Util.quantile a ~p:0.75);
  Alcotest.(check (float 1e-12)) "p25 interpolates" 1.75
    (Util.quantile [| 1.; 2.; 3.; 4. |] ~p:0.25);
  Alcotest.(check (float 0.)) "p0" 1. (Util.quantile a ~p:0.);
  Alcotest.(check (float 0.)) "p1" 9. (Util.quantile a ~p:1.);
  (* a quiet spell in a quarter of the passes does not move the slow
     quartile *)
  let rates = Array.init 40 (fun i -> if i mod 4 = 0 then 10_500. else 6_500. +. float_of_int i) in
  Alcotest.(check bool) "slow quartile stays in the slow regime" true
    (Util.quantile rates ~p:0.25 < 6_600.);
  Alcotest.check_raises "empty" (Invalid_argument "quantile: empty") (fun () ->
      ignore (Util.median [||]));
  Alcotest.check_raises "NaN" (Invalid_argument "quantile: NaN") (fun () ->
      ignore (Util.median [| 1.; Float.nan |]));
  Alcotest.check_raises "p" (Invalid_argument "quantile: p outside [0, 1]") (fun () ->
      ignore (Util.quantile a ~p:1.5))

let minima () =
  (* two groups; passes 0 and 2 fall in group 0, pass 1 in group 1 *)
  let m = Util.Mins.create ~groups:2 3 in
  let record pass values = List.iteri (fun i v -> Util.Mins.add m ~pass i v) values in
  record 0 [ 50; 10; 30 ];
  record 1 [ 20; 90; 40 ];
  record 2 [ 60; 5; 35 ];
  (* each index's minimum over every pass: 20, 5, 30 *)
  Alcotest.(check int) "sum of minima" 55 (Util.Mins.sum m);
  let o = Util.Mins.overall m in
  Alcotest.(check int) "one sample per index" 3 (Util.Hist.count o);
  Alcotest.(check int) "one sample per index and group" 6
    (Util.Hist.count (Util.Mins.grouped m));
  let big = Util.Mins.create ~groups:2 600 in
  for pass = 0 to 3 do
    for i = 0 to 599 do
      (* a slow spell in pass 1 and a slow index 7 in pass 2 *)
      let v = 1000 + i + (if pass = 1 then 5000 else 0) + (if pass = 2 && i = 7 then 9000 else 0) in
      Util.Mins.add big ~pass i v
    done
  done;
  Alcotest.(check int) "slow spells leave the minima" (Array.fold_left ( + ) 0 (Array.init 600 (fun i -> 1000 + i)))
    (Util.Mins.sum big);
  Alcotest.(check bool) "grouped pools 1200 samples for a p99" false
    (is_error (Util.Hist.quantile (Util.Mins.grouped big) ~p:0.99 ~group:1));
  Alcotest.(check bool) "overall has only 600" true
    (is_error (Util.Hist.quantile (Util.Mins.overall big) ~p:0.99 ~group:1));
  let w0 = Gc.minor_words () in
  for i = 0 to 599 do
    Util.Mins.add big ~pass:5 i i
  done;
  Alcotest.(check bool) "add allocates nothing" true (Gc.minor_words () -. w0 < 100.);
  Alcotest.check_raises "an index no pass reached"
    (Invalid_argument "Mins.sum: an index no pass reached") (fun () ->
      ignore (Util.Mins.sum (Util.Mins.create ~groups:1 2)))

let merge () =
  let a = hist_of (List.init 500 (fun i -> i * 3)) in
  let b = hist_of (List.init 500 (fun i -> 10_000 + i)) in
  let both = hist_of (List.init 500 (fun i -> i * 3) @ List.init 500 (fun i -> 10_000 + i)) in
  Util.Hist.merge ~into:a b;
  Alcotest.(check int) "count" 1000 (Util.Hist.count a);
  List.iter
    (fun p ->
      Alcotest.(check (float 0.)) (Printf.sprintf "p%g" p)
        (quantile_ok both ~p ~group:1) (quantile_ok a ~p ~group:1))
    [ 0.5; 0.9; 0.99 ]

let names () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (Util.valid_name s))
    [ "rounds_per_s"; "store.append_ns_per_round"; "0x"; "a-b.c_d"; String.make 64 'a' ];
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "%S" s) false (Util.valid_name s))
    [ ""; "_x"; ".x"; "-x"; "a b"; "a/b"; "µs"; "a\"b"; String.make 65 'a' ]

let units () =
  let names = List.map (fun (n, _, _) -> n) Util.metrics in
  Alcotest.(check int) "names are used once" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (name, u, _) ->
      Alcotest.(check bool) name true (Util.valid_name name);
      Alcotest.(check bool) (name ^ " unit") true (Util.valid_unit u);
      Alcotest.(check string) (name ^ " unit_of") u (Util.unit_of name))
    Util.metrics;
  Alcotest.(check bool) "unit grammar" false (Util.valid_unit "µs");
  Alcotest.check_raises "unknown metric" Not_found (fun () ->
      ignore (Util.unit_of "no_such_metric"));
  (* BENCHMARK.json declares every metric with the same unit, and no
     other. *)
  let json = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let count_sub sub =
    let n = String.length sub in
    let c = ref 0 in
    for i = 0 to String.length json - n do
      if String.sub json i n = sub then incr c
    done;
    !c
  in
  List.iter
    (fun (name, u, _) ->
      Alcotest.(check int) name 1
        (count_sub (Printf.sprintf "{\"name\": %S, \"unit\": %S" name u)))
    Util.metrics;
  Alcotest.(check int) "no other metric" (List.length Util.metrics)
    (count_sub "\"unit\": ")

let result_line () =
  let e2e =
    List.filter_map
      (fun (n, _, k) -> if k = Util.End_to_end then Some (n, 1.5) else None)
      Util.metrics
  in
  let line kind values =
    Util.result_line ~kind ~correct:true ~attempted:10 ~failed:0 values
  in
  (match line Util.End_to_end e2e with
  | Ok s ->
      Alcotest.(check bool) "rounds_per_s with unit" true
        (let sub = "\"rounds_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}" in
         let n = String.length sub in
         let rec has i = i + n <= String.length s && (String.sub s i n = sub || has (i + 1)) in
         has 0)
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool) "missing metric" true (is_error (line Util.End_to_end (List.tl e2e)));
  Alcotest.(check bool) "wrong kind" true (is_error (line Util.Per_layer e2e));
  Alcotest.(check bool) "NaN" true
    (is_error (line Util.End_to_end (("rounds_per_s", Float.nan) :: List.tl e2e)));
  Alcotest.(check bool) "attempted 0" true
    (is_error (Util.result_line ~kind:Util.End_to_end ~correct:true ~attempted:0 ~failed:0 e2e))

let () =
  Alcotest.run "perfbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "quantile values" `Quick quantile_values;
          Alcotest.test_case "clock and histogram allocate nothing" `Quick allocation_free;
          Alcotest.test_case "aggregation over passes" `Quick aggregation;
          Alcotest.test_case "per-index minima over passes" `Quick minima;
          Alcotest.test_case "histogram merge" `Quick merge;
          Alcotest.test_case "metric-name grammar" `Quick names;
          Alcotest.test_case "unit table" `Quick units;
          Alcotest.test_case "result line" `Quick result_line;
        ] );
    ]
