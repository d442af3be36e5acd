(* The two Broker.run workloads.  app3_sparse prices Fig. 5(c) App 3
   impressions (n = 1024 hashed features, logistic model, pure variant,
   ε = 1) with no journal; app1_durable prices the App-1 market shape at
   n = 16 (reserve+uncertainty variant, δ = 0.01) into a Dm_store.Store
   sink with periodic snapshots and no per-record fsync.  A decision's
   latency is the interval between consecutive journal callbacks. *)

module Vec = Dm_linalg.Vec
module Broker = Dm_market.Broker
module Ellipsoid = Dm_market.Ellipsoid
module Mechanism = Dm_market.Mechanism
module Model = Dm_market.Model
module Store = Dm_store.Store
module Journal = Dm_store.Journal
module Snapshots = Dm_store.Snapshots
open Common

let now_ns = Util.now_ns

type market = {
  model : Model.t;
  xs : Vec.t array;  (** the input pool, cycled *)
  reserves : float array;  (** value space *)
  noises : float array;  (** index space *)
  fresh : unit -> Mechanism.t;
  rounds : int;  (** per pass *)
  snapshot_every : int option;  (** [Some k]: journal to a Store *)
}

let kind_code = function
  | Broker.Skipped -> 0
  | Broker.Exploratory -> 1
  | Broker.Conservative -> 2
  | Broker.Baseline -> 3

(* Pool lookups: [workload] allocates only the pair Broker.run asks for. *)
let workload m t =
  let i = t mod Array.length m.xs in
  (m.xs.(i), m.reserves.(i))

let noise m t = m.noises.(t mod Array.length m.noises)

let open_store m ~dir mech =
  match m.snapshot_every with
  | None -> (None, fun _ -> ())
  | Some every ->
      rm_rf dir;
      let s = Store.create ~snapshot_every:every ~dir ~start:0 () in
      (Some s, Store.sink s ~mech)

let pass_of (res : Broker.result) ~seconds ~words ~gc0 ~gc1 ~digest =
  {
    rounds = res.Broker.rounds;
    seconds;
    minor_words = words;
    minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    regret = res.Broker.total_regret;
    value = res.Broker.total_value;
    exploratory = res.Broker.exploratory;
    conservative = res.Broker.conservative;
    skipped = res.Broker.skipped;
    digest;
    recover_s = 0.;
    recover_ok = false;
  }

(* Restart time.  A durable workload runs Store.recover over the pass's
   journal and snapshots, which must give back the live mechanism's
   exact binary snapshot; one without a journal restores the mechanism
   from its end-of-pass binary snapshot. *)
let recover m ~dir mech =
  let live = Mechanism.snapshot_binary mech in
  match m.snapshot_every with
  | Some _ ->
      let t0 = now_ns () in
      let r = Store.recover ~dir () in
      let s = Util.seconds_since t0 in
      let ok =
        match r with
        | Ok { Store.mechanism = Some got; next_round; torn = false; _ } ->
            next_round = m.rounds && String.equal (Mechanism.snapshot_binary got) live
        | Ok _ | Error _ -> false
      in
      (s, ok)
  | None -> (
      let t0 = now_ns () in
      let r = Mechanism.restore live in
      let s = Util.seconds_since t0 in
      match r with
      | Ok got -> (s, String.equal (Mechanism.snapshot_binary got) live)
      | Error _ -> (s, false))

(* Per-call timers and the decision record of a traced pass. *)
type probes = {
  mutable callback_ns : int;
  mutable append_ns : int;
  mutable snap_ns : int;
  mutable snaps : int;
  mutable commit_ns : int;
  kinds : int array;
  prices : Float.Array.t;
  accepted : Bytes.t;
}

let probes m =
  {
    callback_ns = 0;
    append_ns = 0;
    snap_ns = 0;
    snaps = 0;
    commit_ns = 0;
    kinds = Array.make m.rounds 0;
    prices = Float.Array.make m.rounds 0.;
    accepted = Bytes.make m.rounds '\000';
  }

(* One pass from a fresh mechanism and store.  [lat t ns] and [seg t ns]
   receive each decision's latency; [seg m.rounds ns] also receives the
   time from the last decision to the end of the closing sync, so the
   segments sum to the pass time.  [probes] turns the per-call timers on
   and keeps every decision for the replay.  Returns the pass and the
   served mechanism; the store directory is left for the caller. *)
let run_pass m ~dir ~lat ~seg ~probes =
  let mech = m.fresh () in
  let store, sink = open_store m ~dir mech in
  let every = Option.value m.snapshot_every ~default:0 in
  let timed f =
    match probes with
    | None -> f
    | Some p ->
        fun t ->
          let a = now_ns () in
          let r = f t in
          p.callback_ns <- p.callback_ns + (now_ns () - a);
          r
  in
  let workload = timed (workload m) and noise = timed (noise m) in
  let digest = ref 0 and last = ref 0 in
  let journal (e : Broker.event) =
    let now = now_ns () in
    let t = e.Broker.t in
    lat t (now - !last);
    seg t (now - !last);
    last := now;
    let kind = kind_code e.Broker.kind in
    digest := mix_decision !digest ~kind ~price:e.Broker.price_index ~accepted:e.Broker.accepted;
    match probes with
    | None -> sink e
    | Some p ->
        p.kinds.(t) <- kind;
        Float.Array.set p.prices t e.Broker.price_index;
        if e.Broker.accepted then Bytes.set p.accepted t '\001';
        let a = now_ns () in
        sink e;
        let d = now_ns () - a in
        if every > 0 && (t + 1) mod every = 0 then begin
          p.snap_ns <- p.snap_ns + d;
          p.snaps <- p.snaps + 1
        end
        else p.append_ns <- p.append_ns + d
  in
  let gc0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let start = now_ns () in
  last := start;
  let res =
    Broker.run ~checkpoints:[| m.rounds |] ~journal
      ~policy:(Broker.Ellipsoid_pricing mech) ~model:m.model ~noise ~workload
      ~rounds:m.rounds ()
  in
  let c0 = now_ns () in
  Option.iter Store.close store;
  let c1 = now_ns () in
  seg m.rounds (c1 - !last);
  Option.iter (fun p -> p.commit_ns <- c1 - c0) probes;
  let seconds = Util.seconds_since start in
  let words = Gc.minor_words () -. w0 in
  let gc1 = Gc.quick_stat () in
  (pass_of res ~seconds ~words ~gc0 ~gc1 ~digest:!digest, mech)

let pass m ~dir ~lat ~seg =
  let p, mech = run_pass m ~dir ~lat ~seg ~probes:None in
  let recover_s, recover_ok = recover_twice (fun () -> recover m ~dir mech) in
  rm_rf dir;
  { p with recover_s; recover_ok }

(* The scale of [A = scale·M], read from a binary snapshot (the
   ellipsoid image is its magic, a u32 dimension, then the f64 scale).
   Reading the ellipsoid itself would mark it escaped and push the next
   cut off the sparse path. *)
let scale_of mech =
  let s = Mechanism.snapshot_binary mech in
  let magic = Ellipsoid.binary_magic in
  let rec find i =
    if String.sub s i (String.length magic) = magic then i else find (i + 1)
  in
  Int64.float_of_bits (String.get_int64_le s (find 0 + String.length magic + 4))

(* Replays a traced pass's recorded decisions through a fresh mechanism
   with Mechanism.decide/observe timed per call.  Every decision must
   match the recorded one bit for bit; [Error] names the first round
   that does not.

   The replay also counts scale fold-ins from outside.  The sparse cut
   path keeps the shape as scale·M; every cut multiplies scale, and when
   scale leaves range or every 1000 cuts an O(n²) pass folds it back
   into M and leaves it at exactly 1.  At n = 1024 such an observe takes
   about 20 times a plain one.  A snapshot read costs O(n²) too, so the
   scale is read only after the first rounds, after observes slower
   than 5 times the mean observe so far, and after the observe that
   follows a fold-in.  A read of exactly 1 counts as a fold-in when
   the sparse path has been seen (some read was not 1) and the
   previous read was not 1.  A dense-only ellipsoid keeps scale at 1
   and counts none. *)
let replay m (p : probes) =
  let mech = m.fresh () in
  let g_inv = m.model.Model.link.Model.g_inv in
  let decide_ns = ref 0 and observe_ns = ref 0 and bad = ref None in
  let folds = ref 0 and sparse = ref false and prev = ref 1. and recheck = ref false in
  for t = 0 to m.rounds - 1 do
    let x, q = workload m t in
    let t0 = now_ns () in
    let d = Mechanism.decide mech ~x ~reserve:(g_inv q) in
    let t1 = now_ns () in
    Mechanism.observe mech ~x d ~accepted:(Bytes.get p.accepted t = '\001');
    let o = now_ns () - t1 in
    if t < 16 || !recheck || o * t > 5 * !observe_ns then begin
      let s = scale_of mech in
      if s <> 1. then begin
        sparse := true;
        recheck := false
      end
      else if !sparse && !prev <> 1. then begin
        incr folds;
        recheck := true
      end;
      prev := s
    end;
    decide_ns := !decide_ns + (t1 - t0);
    observe_ns := !observe_ns + o;
    let same =
      match d with
      | Mechanism.Skip -> p.kinds.(t) = 0
      | Mechanism.Post { price; kind; _ } ->
          p.kinds.(t) = (if kind = Mechanism.Exploratory then 1 else 2)
          && Int64.equal (Int64.bits_of_float price)
               (Int64.bits_of_float (Float.Array.get p.prices t))
    in
    if (not same) && Option.is_none !bad then bad := Some t
  done;
  match !bad with
  | Some t -> Error (Printf.sprintf "replay diverged at round %d" t)
  | None -> Ok (!decide_ns, !observe_ns, !folds)

let traced m ~dir ~e2e_ns =
  let timers = probes m in
  let skip _ _ = () in
  let p, mech = run_pass m ~dir ~lat:skip ~seg:skip ~probes:(Some timers) in
  let journal_bytes, snapshot_bytes, segments, read_dir_s, replay_s, replayed =
    match m.snapshot_every with
    | None -> (0, 0, 0, 0., 0., 0)
    | Some _ ->
        let jb = dir_bytes ~snapshots:false dir
        and sb = dir_bytes ~snapshots:true dir in
        (* Recovery's two halves, timed apart: reading the journal,
           then replaying the tail past the newest snapshot. *)
        let t0 = now_ns () in
        let events =
          match Journal.read_dir ~dir with
          | Ok (evs, _) -> Array.of_list evs
          | Error e -> failwith e
        in
        let read_s = Util.seconds_since t0 in
        let round, from = Option.get (Snapshots.newest ~dir) in
        let t1 = now_ns () in
        let replayed =
          match Store.replay_tail from ~snapshot_round:round events with
          | Ok r -> r
          | Error e -> failwith e
        in
        (jb, sb, List.length (Journal.segments ~dir), read_s, Util.seconds_since t1, replayed)
  in
  let recover_s, recover_ok = recover m ~dir mech in
  rm_rf dir;
  let fr = float_of_int m.rounds in
  let per_round ns = float_of_int ns /. fr in
  let decide_ns, observe_ns, folds, replay_ok =
    match replay m timers with
    | Ok (d, o, f) -> (d, o, f, true)
    | Error msg ->
        prerr_endline ("traced replay: " ^ msg);
        (0, 0, 0, false)
  in
  let traced_ns = p.seconds *. 1e9 /. fr in
  let layer_ns =
    timers.callback_ns + decide_ns + observe_ns + timers.append_ns + timers.snap_ns + timers.commit_ns
  in
  (* Store.sink snapshots with three fsyncs (Journal.sync, then
     Snapshots.write's file and directory), Journal.append fsyncs a
     segment it rotates away from, and Store.close fsyncs once more. *)
  let fsyncs =
    if m.snapshot_every = None then 0 else (3 * timers.snaps) + (segments - 1) + 1
  in
  {
    tpass = { p with recover_s; recover_ok = recover_ok && replay_ok };
    layers =
      [
        ("trace.overhead_share", (traced_ns /. e2e_ns) -. 1.);
        ("ladder.residual_share", (traced_ns -. per_round layer_ns) /. traced_ns);
        ("batcher.ns_per_round", 0.);
        ("mechanism.decide_batch_ns_per_round", 0.);
        ("mechanism.decide_ns_per_round", per_round decide_ns);
        ("mechanism.observe_ns_per_round", per_round observe_ns);
        ("mechanism.exploratory_share", float_of_int p.exploratory /. fr);
        ("mechanism.skip_share", float_of_int p.skipped /. fr);
        ("linalg.project_batch_us_per_batch", 0.);
        ("linalg.project_flops_per_round", 0.);
        ("ellipsoid.fold_ins", float_of_int folds);
        ("apps.nnz_per_round", mean_nnz m.xs);
        ("apps.callback_ns_per_round", per_round timers.callback_ns);
        ("broker.self_ns_per_round", traced_ns -. per_round layer_ns);
        ("store.append_ns_per_round", per_round timers.append_ns);
        ("store.commit_us_per_batch", float_of_int timers.commit_ns /. 1e3);
        ("store.fsyncs_per_kround", float_of_int fsyncs *. 1e3 /. fr);
        ( "store.snapshot_us",
          if timers.snaps > 0 then float_of_int timers.snap_ns /. float_of_int timers.snaps /. 1e3
          else 0. );
        ( "store.snapshot_bytes",
          if timers.snaps > 0 then float_of_int snapshot_bytes /. float_of_int timers.snaps
          else 0. );
        ("store.journal_bytes_per_round", float_of_int journal_bytes /. fr);
        ("store.read_dir_s", read_dir_s);
        ("store.replay_s", replay_s);
        ("store.replayed_events", float_of_int replayed);
      ];
  }

module Make (M : sig
  val name : string
  val rounds : int
  val setup : seed:int -> market
end) : WORKLOAD = struct
  type t = market

  let name = M.name
  let rounds = M.rounds
  let segments = M.rounds + 1
  let group = 1
  let setup = M.setup
  let pass = pass
  let traced = traced
end

module App3_sparse = Make (struct
  let name = "app3_sparse"

  (* 16 MiB of dense n = 1024 features, cycled about 10 times a pass.
     θ* is fitted on 20,000 impressions rather than the artifact's
     200,000, which keeps set-up near 0.3 s (about 21 non-zero
     weights either way). *)
  let pool_size = 2_048
  let rounds = 5_000

  let setup ~seed =
    let imp =
      Dm_apps.Impression.make ~train_rounds:20_000 ~seed ~dim:1_024
        ~rounds:pool_size ()
    in
    let case = Dm_apps.Impression.Sparse in
    {
      model = Dm_apps.Impression.model imp case;
      xs = imp.Dm_apps.Impression.sparse_stream;
      reserves = Array.make pool_size 0.;
      noises = Array.make pool_size 0.;
      fresh =
        (fun () ->
          Dm_apps.Impression.mechanism ~epsilon:1. imp case Mechanism.pure);
      rounds;
      snapshot_every = None;
    }
end)

module App1_durable = Make (struct
  let name = "app1_durable"
  let pool_size = 16_384
  let rounds = 100_000

  let setup ~seed =
    (* The market for a pool-length horizon: its ε is the 2.5·n·δ floor
       either way, and the set-up stays light. *)
    let s = Dm_experiments.Longrun.make_setup ~dim:16 ~seed ~rounds:pool_size () in
    let pairs = Array.init pool_size s.Dm_experiments.Longrun.workload in
    {
      model = s.Dm_experiments.Longrun.model;
      xs = Array.map fst pairs;
      reserves = Array.map snd pairs;
      noises = Array.init pool_size s.Dm_experiments.Longrun.noise;
      fresh =
        (fun () ->
          Dm_experiments.Longrun.mechanism s
            (Mechanism.with_reserve_and_uncertainty ~delta:0.01));
      rounds;
      snapshot_every = Some 24_000;
    }
end)
