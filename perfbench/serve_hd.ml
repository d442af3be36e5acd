(* serve_hd: the canonical batched serving configuration.  64 tenants
   share one orthonormal 32×4096 projection and price with the pure
   variant at ε = 0.1 and err = 0.  Requests arrive round-robin into a
   Fleet.Batcher with B = 64; each flush goes through one
   Mechanism.decide_batch, then observe, then one append per request of
   the k-dim statistic u = P·x to a shared Dm_store.Fleet journal, then
   one Fleet.sync (one fsync) per batch.  A decision's latency runs from
   its Batcher.add to its batch's commit. *)

module Vec = Dm_linalg.Vec
module Mat = Dm_linalg.Mat
module Rng = Dm_prob.Rng
module Dist = Dm_prob.Dist
module Broker = Dm_market.Broker
module Ellipsoid = Dm_market.Ellipsoid
module Mechanism = Dm_market.Mechanism
module Regret = Dm_market.Regret
module Fleet = Dm_store.Fleet
module Store = Dm_store.Store
module Batcher = Dm_store.Fleet.Batcher
open Common

let now_ns = Util.now_ns

let name = "serve_hd"
let n = 4_096
let k = 32
let b = 64
let tenants = 64
let radius = 2.
let epsilon = 0.1

(* 4 distinct features per tenant, 8 MiB of inputs; each tenant serves
   128 rounds a pass.  A pass is 128 batches: long enough that the
   first batch of a pass, which runs on cold caches and a fresh
   journal, is under 1% of the batches and stays out of the p99, and
   short enough that a run makes 20 to 30 passes. *)
let pool_size = 256
let rounds = 8_192
let segments = rounds / b
let group = b

type t = { basis : Mat.t; pt : Mat.t; xs : Vec.t array; values : float array }

(* Modified Gram–Schmidt over Gaussian rows, as in the serve artifact:
   orthonormal rows make in-rowspace features price exactly, so err = 0
   is legitimate. *)
let orthonormal_rows rng =
  let rows = Array.init k (fun _ -> Dist.normal_vec rng ~dim:n) in
  for i = 0 to k - 1 do
    for j = 0 to i - 1 do
      Vec.axpy (-.Vec.dot rows.(i) rows.(j)) rows.(j) rows.(i)
    done;
    rows.(i) <- Vec.normalize rows.(i)
  done;
  Mat.init k n (fun i j -> rows.(i).(j))

let setup ~seed =
  let rng = Rng.create seed in
  let basis = orthonormal_rows rng in
  let thetas =
    Array.init tenants (fun _ ->
        let w = Vec.map Float.abs (Dist.normal_vec rng ~dim:k) in
        let th = Mat.project_t basis w in
        Vec.scale (0.9 *. radius /. Vec.norm2 th) th)
  in
  let xs =
    Array.init pool_size (fun _ ->
        let z = Vec.map Float.abs (Dist.normal_vec rng ~dim:k) in
        Vec.normalize (Mat.project_t basis z))
  in
  let values = Array.mapi (fun i x -> Vec.dot x thetas.(i mod tenants)) xs in
  { basis; pt = Mat.transpose basis; xs; values }

let make_mech basis _ =
  Mechanism.create_projected
    (Mechanism.config ~variant:Mechanism.pure ~epsilon ())
    ~projection:basis ~err:0. (Ellipsoid.ball ~dim:k ~radius)

(* Recovery replays the k-dim log into dense k-dim mechanisms. *)
let dense_mech _ =
  Mechanism.create
    (Mechanism.config ~variant:Mechanism.pure ~epsilon ())
    (Ellipsoid.ball ~dim:k ~radius)

let event ~t ~u (d : Mechanism.decision) ~accepted : Broker.event =
  match d with
  | Mechanism.Skip ->
      {
        Broker.t; x = u; reserve = 0.; kind = Broker.Skipped;
        price_index = Float.nan; lower = Float.nan; upper = Float.nan;
        posted = None; accepted = false; payment = 0.;
      }
  | Mechanism.Post { price; kind; lower; upper } ->
      {
        Broker.t; x = u; reserve = 0.;
        kind =
          (match kind with
          | Mechanism.Exploratory -> Broker.Exploratory
          | Mechanism.Conservative -> Broker.Conservative);
        price_index = price; lower; upper; posted = Some price; accepted;
        payment = (if accepted then price else 0.);
      }

(* Bitwise digest of a mechanism's knowledge set (scale, center,
   shape), as the serve artifact compares served and recovered
   tenants. *)
let state_digest m =
  let e = Mechanism.ellipsoid m in
  let buf = Buffer.create (8 * (1 + k + (k * k))) in
  let add v = Buffer.add_int64_le buf (Int64.bits_of_float v) in
  add e.Ellipsoid.scale;
  Array.iter add e.Ellipsoid.center;
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      add (Mat.get e.Ellipsoid.shape i j)
    done
  done;
  Buffer.contents buf

(* Per-call timers of the traced pass; all zero in an untraced pass,
   which reads the clock only for latency.  The kernel probe runs
   Mat.project_batch on each batch's own panel after the batch's
   commit; [probe_ns] is the whole probe, packing included, which the
   pass time leaves out. *)
type probes = {
  mutable add_ns : int;
  mutable decide_ns : int;
  mutable observe_ns : int;
  mutable append_ns : int;
  mutable commit_ns : int;
  mutable project_ns : int;
  mutable probe_ns : int;
  panel : Mat.t;
  out : Mat.t;
}

(* One pass from fresh mechanisms and a fresh journal.  [probes] turns
   the per-layer timers on; [lat i ns] receives decision [i]'s latency
   and [seg j ns] the time of batch [j], from its first Batcher.add to
   its commit. *)
let run_pass inp ~dir ~lat ~seg ~probes =
  rm_rf dir;
  (* Room for a whole batch of k-dim frames, so the buffer never fills
     inside a batch; latency_appends = B + 1 never fires either, so the
     explicit Fleet.sync after each batch is its one commit and fsync,
     at the same record boundary latency_appends = B would choose. *)
  let fleet =
    Fleet.create ~commit_bytes:(b * (128 + (12 * k))) ~latency_appends:(b + 1)
      ~dir ~tenants ()
  in
  let mechs = Array.init tenants (make_mech inp.basis) in
  let ctx = Mechanism.batch mechs.(0) in
  let batcher = Batcher.create ~capacity:b ~latency_rounds:b in
  let xs_b = Array.make b inp.xs.(0) in
  let ms_b = Array.make b mechs.(0) in
  let reserves = Array.make b 0. in
  let added = Array.make b 0 in
  let acc = Array.make b false in
  let sums = [| 0.; 0. |] (* regret, market value *) in
  let expl = ref 0 and cons = ref 0 and skip = ref 0 and digest = ref 0 in
  let timing = Option.is_some probes in
  let flush batch =
    let nb = Array.length batch in
    for j = 0 to nb - 1 do
      xs_b.(j) <- inp.xs.(batch.(j) mod pool_size);
      ms_b.(j) <- mechs.(batch.(j) mod tenants)
    done;
    let t0 = now_ns () in
    let ds = Mechanism.decide_batch ctx ms_b ~xs:xs_b ~reserves in
    let t1 = now_ns () in
    for j = 0 to nb - 1 do
      let v = inp.values.(batch.(j) mod pool_size) in
      let d = ds.(j) in
      (* Sums live in a float array so accounting allocates nothing. *)
      sums.(1) <- sums.(1) +. v;
      let accepted =
        match d with
        | Mechanism.Skip ->
            incr skip;
            digest := mix_decision !digest ~kind:0 ~price:0. ~accepted:false;
            sums.(0) <-
              sums.(0) +. Regret.skipped ~reserve:Float.neg_infinity ~market_value:v;
            false
        | Mechanism.Post { price; kind; _ } ->
            let accepted = price <= v in
            (match kind with
            | Mechanism.Exploratory -> incr expl
            | Mechanism.Conservative -> incr cons);
            digest :=
              mix_decision !digest
                ~kind:(if kind = Mechanism.Exploratory then 1 else 2)
                ~price ~accepted;
            sums.(0) <- sums.(0) +. Regret.posted ~market_value:v ~price ();
            accepted
      in
      acc.(j) <- accepted;
      Mechanism.observe ms_b.(j) ~x:xs_b.(j) d ~accepted
    done;
    let t2 = now_ns () in
    let append_ns = ref 0 in
    for j = 0 to nb - 1 do
      let tenant = batch.(j) mod tenants in
      (* Copy u out before the next batch overwrites the memo. *)
      let u =
        match Mechanism.projected_feature ms_b.(j) ~x:xs_b.(j) with
        | Some u -> u
        | None -> failwith "serve_hd: projected feature not memoized"
      in
      let e = event ~t:(batch.(j) / tenants) ~u ds.(j) ~accepted:acc.(j) in
      if timing then begin
        let a = now_ns () in
        Fleet.append fleet ~tenant e;
        append_ns := !append_ns + (now_ns () - a)
      end
      else Fleet.append fleet ~tenant e
    done;
    let t3 = now_ns () in
    Fleet.sync fleet;
    let t4 = now_ns () in
    for j = 0 to nb - 1 do
      lat batch.(j) (t4 - added.(batch.(j) mod b))
    done;
    seg (batch.(0) / b) (t4 - added.(batch.(0) mod b));
    match probes with
    | None -> ()
    | Some p ->
        p.decide_ns <- p.decide_ns + (t1 - t0);
        p.observe_ns <- p.observe_ns + (t2 - t1);
        p.append_ns <- p.append_ns + !append_ns;
        p.commit_ns <- p.commit_ns + (t4 - t3);
        ignore (Mat.pack_rows ~into:p.panel (Array.sub xs_b 0 nb));
        let t5 = now_ns () in
        ignore (Mat.project_batch ~into:p.out ~pt:inp.pt p.panel);
        let t6 = now_ns () in
        p.project_ns <- p.project_ns + (t6 - t5);
        p.probe_ns <- p.probe_ns + (t6 - t4)
  in
  let gc0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let start = now_ns () in
  for i = 0 to rounds - 1 do
    let a = now_ns () in
    added.(i mod b) <- a;
    let r = Batcher.add batcher i in
    (match probes with
    | Some p -> p.add_ns <- p.add_ns + (now_ns () - a)
    | None -> ());
    match r with Some batch -> flush batch | None -> ()
  done;
  (match Batcher.flush batcher with Some batch -> flush batch | None -> ());
  let probe_ns = match probes with Some p -> p.probe_ns | None -> 0 in
  let seconds = float_of_int (now_ns () - start - probe_ns) *. 1e-9 in
  let words = Gc.minor_words () -. w0 in
  let gc1 = Gc.quick_stat () in
  let fsyncs = Fleet.fsync_count fleet in
  Fleet.close fleet;
  let served = Array.map state_digest mechs in
  ( {
      rounds;
      seconds;
      minor_words = words;
      minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
      regret = sums.(0);
      value = sums.(1);
      exploratory = !expl;
      conservative = !cons;
      skipped = !skip;
      digest = !digest;
      recover_s = 0.;
      recover_ok = false;
    },
    served,
    fsyncs )

(* Every tenant rebuilt from the journal alone must match its served
   knowledge set bit for bit. *)
let recover ~dir served =
  let t0 = now_ns () in
  let r = Fleet.recover ~initial:dense_mech ~dir ~tenants () in
  let s = Util.seconds_since t0 in
  let ok =
    match r with
    | Error _ -> false
    | Ok (recs, torn) ->
        (not torn)
        && Array.length recs = tenants
        && Array.for_all2
             (fun (r : Fleet.recovery) d ->
               r.Fleet.replayed = rounds / tenants
               &&
               match r.Fleet.mechanism with
               | Some m -> String.equal (state_digest m) d
               | None -> false)
             recs served
  in
  (s, ok)

let pass inp ~dir ~lat ~seg =
  let p, served, _ = run_pass inp ~dir ~lat ~seg ~probes:None in
  let recover_s, recover_ok = recover_twice (fun () -> recover ~dir served) in
  rm_rf dir;
  { p with recover_s; recover_ok }

let traced inp ~dir ~e2e_ns =
  let probes =
    {
      add_ns = 0; decide_ns = 0; observe_ns = 0; append_ns = 0; commit_ns = 0;
      project_ns = 0; probe_ns = 0; panel = Mat.create b n 0.; out = Mat.create b k 0.;
    }
  in
  let skip _ _ = () in
  let p, served, fsyncs = run_pass inp ~dir ~lat:skip ~seg:skip ~probes:(Some probes) in
  let journal_bytes = dir_bytes ~snapshots:false dir in
  let recover_s, recover_ok = recover ~dir served in
  (* The two halves of recovery, timed apart: reading the shared log,
     then replaying each tenant's rounds into a fresh dense mechanism. *)
  let t0 = now_ns () in
  let log =
    match Fleet.read_dir ~dir with
    | Ok (log, Fleet.Clean) -> log
    | Ok (_, Fleet.Torn _) | Error _ -> []
  in
  let read_dir_s = Util.seconds_since t0 in
  let per_tenant = Array.make tenants [] in
  List.iter (fun (tn, e) -> per_tenant.(tn) <- e :: per_tenant.(tn)) log;
  let t1 = now_ns () in
  let replayed =
    Array.fold_left
      (fun acc evs ->
        let evs = Array.of_list (List.rev evs) in
        match Store.replay_tail (dense_mech ()) ~snapshot_round:0 evs with
        | Ok r -> acc + r
        | Error _ -> acc)
      0 per_tenant
  in
  let replay_s = Util.seconds_since t1 in
  rm_rf dir;
  let per_round ns = float_of_int ns /. float_of_int rounds in
  let batches = float_of_int (rounds / b) in
  let layer_ns =
    List.fold_left ( + ) 0
      [ probes.add_ns; probes.decide_ns; probes.observe_ns; probes.append_ns;
        probes.commit_ns ]
  in
  let traced_ns = p.seconds *. 1e9 /. float_of_int rounds in
  let fr = float_of_int rounds in
  {
    tpass = { p with recover_s; recover_ok = recover_ok && replayed = rounds };
    layers =
      [
        ("trace.overhead_share", (traced_ns /. e2e_ns) -. 1.);
        ("ladder.residual_share", (traced_ns -. per_round layer_ns) /. traced_ns);
        ("batcher.ns_per_round", per_round probes.add_ns);
        ("mechanism.decide_batch_ns_per_round", per_round probes.decide_ns);
        ("mechanism.decide_ns_per_round", per_round probes.decide_ns);
        ("mechanism.observe_ns_per_round", per_round probes.observe_ns);
        ("mechanism.exploratory_share", float_of_int p.exploratory /. fr);
        ("mechanism.skip_share", float_of_int p.skipped /. fr);
        ("linalg.project_batch_us_per_batch", float_of_int probes.project_ns /. batches /. 1e3);
        ("linalg.project_flops_per_round", float_of_int (2 * n * k));
        (* u = P·x is dense, so the sparse cut path never runs *)
        ("ellipsoid.fold_ins", 0.);
        ("apps.nnz_per_round", mean_nnz inp.xs);
        ("apps.callback_ns_per_round", 0.);
        ("broker.self_ns_per_round", 0.);
        ("store.append_ns_per_round", per_round probes.append_ns);
        ("store.commit_us_per_batch", float_of_int probes.commit_ns /. batches /. 1e3);
        ("store.fsyncs_per_kround", float_of_int fsyncs *. 1e3 /. fr);
        ("store.snapshot_us", 0.);
        ("store.snapshot_bytes", 0.);
        ("store.journal_bytes_per_round", float_of_int journal_bytes /. fr);
        ("store.read_dir_s", read_dir_s);
        ("store.replay_s", replay_s);
        ("store.replayed_events", float_of_int replayed);
      ];
  }
