let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

module Hist = struct
  (* Index layout: values below 256 get one bucket each; a larger value
     with its top bit at position [m] keeps its 8 leading bits [top]
     (128 ≤ top < 256) and lands in [(m − 7)·128 + top], so every
     power of two splits into 128 buckets of width 2^(m−7). *)
  let sub = 128
  let buckets = 64 * sub

  type t = { counts : int array; mutable total : int }

  let create () = { counts = Array.make buckets 0; total = 0 }

  let rec msb v m = if v > 1 then msb (v lsr 1) (m + 1) else m

  let index v =
    if v < 2 * sub then v
    else
      let shift = msb v 0 - 7 in
      (shift * sub) + (v lsr shift)

  (* Midpoint of bucket [i]: exact below 256, within half a bucket
     width (< 0.4%) above. *)
  let value_of i =
    if i < 2 * sub then float_of_int i
    else
      let shift = (i / sub) - 1 in
      let top = sub + (i mod sub) in
      let lo = top lsl shift in
      float_of_int lo +. (float_of_int ((1 lsl shift) - 1) /. 2.)

  let add t v =
    let i = index (if v < 0 then 0 else v) in
    Array.unsafe_set t.counts i (Array.unsafe_get t.counts i + 1);
    t.total <- t.total + 1

  let count t = t.total

  let merge ~into t =
    Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) t.counts;
    into.total <- into.total + t.total

  let quantile t ~p ~group =
    if not (p > 0. && p < 1.) then Error "quantile: p must lie in (0, 1)"
    else if group < 1 then Error "quantile: group must be >= 1"
    else
      let independent = float_of_int (t.total / group) in
      if independent *. (1. -. p) < 10. then
        Error
          (Printf.sprintf
             "quantile: p%g needs 10 independent samples beyond it, have \
              %.1f of %d"
             (100. *. p)
             (independent *. (1. -. p))
             (t.total / group))
      else
        let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int t.total))) in
        let rec walk i acc =
          let acc = acc + t.counts.(i) in
          if acc >= rank then value_of i else walk (i + 1) acc
        in
        Ok (walk 0 0)
end

module Mins = struct
  (* [m.(g·n + i)] is the minimum at index [i] over the passes of group
     [g]; [unset] marks an index no pass of the group has reached. *)
  type t = { n : int; groups : int; m : int array }

  let unset = max_int
  let create ~groups n = { n; groups; m = Array.make (groups * n) unset }

  let add t ~pass i v =
    let j = (pass mod t.groups * t.n) + i in
    if v < Array.unsafe_get t.m j then Array.unsafe_set t.m j v

  let overall_at t i =
    let best = ref unset in
    for g = 0 to t.groups - 1 do
      best := min !best t.m.((g * t.n) + i)
    done;
    !best

  let sum t =
    let s = ref 0 in
    for i = 0 to t.n - 1 do
      let v = overall_at t i in
      if v = unset then invalid_arg "Mins.sum: an index no pass reached";
      s := !s + v
    done;
    !s

  let overall t =
    let h = Hist.create () in
    for i = 0 to t.n - 1 do
      let v = overall_at t i in
      if v <> unset then Hist.add h v
    done;
    h

  let grouped t =
    let h = Hist.create () in
    Array.iter (fun v -> if v <> unset then Hist.add h v) t.m;
    h
end

let quantile a ~p =
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: empty";
  if Array.exists Float.is_nan a then invalid_arg "quantile: NaN";
  if not (p >= 0. && p <= 1.) then invalid_arg "quantile: p outside [0, 1]";
  let s = Array.copy a in
  Array.sort Float.compare s;
  let h = p *. float_of_int (n - 1) in
  let i = int_of_float h in
  if i >= n - 1 then s.(n - 1) else s.(i) +. ((h -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile a ~p:0.5

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

type kind = End_to_end | Per_layer

let metrics =
  let e name u = (name, u, End_to_end) and l name u = (name, u, Per_layer) in
  [
    e "rounds_per_s" "1/s";
    e "latency_p50_us" "us";
    e "latency_p99_us" "us";
    e "regret_ratio" "ratio";
    e "setup_s" "s";
    e "peak_rss_mb" "MiB";
    e "minor_words_per_round" "words";
    e "recover_s" "s";
    l "trace.overhead_share" "ratio";
    l "ladder.residual_share" "ratio";
    l "batcher.ns_per_round" "ns";
    l "mechanism.decide_batch_ns_per_round" "ns";
    l "mechanism.decide_ns_per_round" "ns";
    l "mechanism.observe_ns_per_round" "ns";
    l "mechanism.exploratory_share" "ratio";
    l "mechanism.skip_share" "ratio";
    l "linalg.project_batch_us_per_batch" "us";
    l "linalg.project_flops_per_round" "flop";
    l "ellipsoid.fold_ins" "count";
    l "apps.nnz_per_round" "count";
    l "apps.callback_ns_per_round" "ns";
    l "broker.self_ns_per_round" "ns";
    l "store.append_ns_per_round" "ns";
    l "store.commit_us_per_batch" "us";
    l "store.fsyncs_per_kround" "count";
    l "store.snapshot_us" "us";
    l "store.snapshot_bytes" "bytes";
    l "store.journal_bytes_per_round" "bytes";
    l "store.read_dir_s" "s";
    l "store.replay_s" "s";
    l "store.replayed_events" "count";
    l "gc.minor_collections_per_kround" "count";
    l "gc.major_collections" "count";
    l "gc.top_heap_mb" "MiB";
  ]

let unit_of name =
  let _, u, _ = List.find (fun (n, _, _) -> String.equal n name) metrics in
  u

let result_line ~kind ~correct ~attempted ~failed values =
  let expected =
    List.filter_map (fun (n, _, k) -> if k = kind then Some n else None) metrics
  in
  let bad =
    List.find_opt
      (fun (name, v) ->
        (not (List.exists (fun (n, _, _) -> String.equal n name) metrics))
        || not (Float.is_finite v))
      values
  in
  match bad with
  | Some (name, v) -> Error (Printf.sprintf "metric %s = %g is unknown or not finite" name v)
  | None when List.sort compare (List.map fst values) <> List.sort compare expected
    ->
      Error "the metrics are not exactly the ones of this kind"
  | None when attempted < 1 || failed < 0 || failed > attempted ->
      Error "need 0 <= failed <= attempted and attempted >= 1"
  | None ->
      let body =
        List.map
          (fun (name, v) ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v
              (unit_of name))
          values
      in
      Ok
        (Printf.sprintf
           "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
            {%s}}"
           correct attempted failed (String.concat ", " body))
