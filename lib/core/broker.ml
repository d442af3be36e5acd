module Vec = Dm_linalg.Vec
module Pool = Dm_linalg.Pool
module Stats = Dm_prob.Stats

type custom_policy = {
  policy_name : string;
  decide : x:Vec.t -> reserve:float -> float option;
  learn : x:Vec.t -> price:float -> accepted:bool -> unit;
  uses_reserve : bool;
}

type policy =
  | Ellipsoid_pricing of Mechanism.t
  | Risk_averse
  | Custom of custom_policy

type kind = Exploratory | Conservative | Skipped | Baseline

type event = {
  t : int;
  x : Vec.t;
  reserve : float;
  kind : kind;
  price_index : float;
  lower : float;
  upper : float;
  posted : float option;
  accepted : bool;
  payment : float;
}

(* Shared audit triple for rounds run without a journal sink, so the
   no-journal hot path allocates nothing extra per round. *)
let no_audit = (Float.nan, Float.nan, Float.nan)

type round = {
  index : int;
  reserve : float;
  market_value : float;
  posted : float option;
  kind : kind;
  accepted : bool;
  revenue : float;
  regret : float;
}

type series = {
  checkpoints : int array;
  cumulative_regret : float array;
  cumulative_value : float array;
  regret_ratio : float array;
}

type result = {
  rounds : int;
  total_regret : float;
  total_value : float;
  total_revenue : float;
  regret_ratio : float;
  series : series;
  market_value_stats : Stats.summary;
  reserve_stats : Stats.summary;
  posted_stats : Stats.summary;
  regret_stats : Stats.summary;
  exploratory : int;
  conservative : int;
  skipped : int;
  accepted_rounds : int;
  logs : round array option;
}

let default_checkpoints ~rounds =
  if rounds < 1 then invalid_arg "Broker.default_checkpoints: empty horizon";
  let target = 200 in
  let ratio = (float_of_int rounds) ** (1. /. float_of_int target) in
  let rec collect acc last x =
    if last >= rounds then List.rev acc
    else
      let next = max (last + 1) (int_of_float (Float.round x)) in
      let next = min next rounds in
      collect (next :: acc) next (x *. ratio)
  in
  Array.of_list (collect [ 1 ] 1 ratio)

let uses_reserve = function
  | Risk_averse -> true
  | Ellipsoid_pricing m -> (Mechanism.config_of m).Mechanism.variant.use_reserve
  | Custom c -> c.uses_reserve

(* The checkpoint-consumption loops assume strictly increasing 1-based
   rounds; a malformed array would silently drop checkpoints and leave
   zeroed series entries. *)
let resolve_checkpoints ~fname ~rounds = function
  | Some c ->
      Array.iteri
        (fun i cp ->
          if cp < 1 || cp > rounds then
            invalid_arg (fname ^ ": checkpoint outside [1, rounds]");
          if i > 0 && cp <= c.(i - 1) then
            invalid_arg (fname ^ ": checkpoints must be strictly increasing"))
        c;
      c
  | None -> default_checkpoints ~rounds

let run ?checkpoints ?(record_rounds = false) ?journal ~policy ~model ~noise
    ~workload ~rounds () =
  if rounds < 1 then invalid_arg "Broker.run: need at least one round";
  let journaling = Option.is_some journal in
  let checkpoints =
    resolve_checkpoints ~fname:"Broker.run" ~rounds checkpoints
  in
  let n_checks = Array.length checkpoints in
  let cum_regret_at = Array.make n_checks 0. in
  let cum_value_at = Array.make n_checks 0. in
  let ratio_at = Array.make n_checks 0. in
  let next_check = ref 0 in
  let mv_stats = Stats.online_create () in
  let rs_stats = Stats.online_create () in
  let post_stats = Stats.online_create () in
  let regret_stats = Stats.online_create () in
  let cum_regret = ref 0. in
  let cum_value = ref 0. in
  let cum_revenue = ref 0. in
  let exploratory = ref 0 in
  let conservative = ref 0 in
  let skipped = ref 0 in
  let accepted_rounds = ref 0 in
  let logs = if record_rounds then Some (ref []) else None in
  let with_reserve = uses_reserve policy in
  let theta = model.Model.theta in
  let link = model.Model.link in
  for t = 0 to rounds - 1 do
    let x_raw, q_value = workload t in
    let phi = Model.feature_map model x_raw in
    let delta_t = noise t in
    let market_index = Vec.dot phi theta +. delta_t in
    let market_value = link.Model.g market_index in
    let posted, kind, accepted, audit =
      match policy with
      | Risk_averse ->
          let audit =
            if journaling then (link.Model.g_inv q_value, Float.nan, Float.nan)
            else no_audit
          in
          (Some q_value, Baseline, q_value <= market_value, audit)
      | Custom c -> (
          let reserve_index = link.Model.g_inv q_value in
          match c.decide ~x:phi ~reserve:reserve_index with
          | None -> (None, Skipped, false, no_audit)
          | Some price ->
              let accepted = price <= market_index in
              c.learn ~x:phi ~price ~accepted;
              let audit =
                if journaling then (price, Float.nan, Float.nan) else no_audit
              in
              (Some (link.Model.g price), Baseline, accepted, audit))
      | Ellipsoid_pricing mech ->
          let reserve_index = link.Model.g_inv q_value in
          let decision = Mechanism.decide mech ~x:phi ~reserve:reserve_index in
          let accepted =
            match decision with
            | Mechanism.Skip -> false
            | Mechanism.Post { price; _ } -> price <= market_index
          in
          Mechanism.observe mech ~x:phi decision ~accepted;
          let posted, kind, audit =
            match decision with
            | Mechanism.Skip -> (None, Skipped, no_audit)
            | Mechanism.Post { price; kind = mkind; lower; upper } ->
                let kind =
                  match mkind with
                  | Mechanism.Exploratory -> Exploratory
                  | Mechanism.Conservative -> Conservative
                in
                let audit =
                  if journaling then (price, lower, upper) else no_audit
                in
                (Some (link.Model.g price), kind, audit)
          in
          (posted, kind, accepted, audit)
    in
    let regret =
      match posted with
      | None -> Regret.skipped ~reserve:q_value ~market_value
      | Some p ->
          if with_reserve then
            Regret.posted ~reserve:q_value ~market_value ~price:p ()
          else Regret.posted ~market_value ~price:p ()
    in
    let revenue =
      match posted with
      | Some p when accepted -> p
      | Some _ | None -> 0.
    in
    (match kind with
    | Exploratory -> incr exploratory
    | Conservative -> incr conservative
    | Skipped -> incr skipped
    | Baseline -> ());
    if accepted then incr accepted_rounds;
    cum_regret := !cum_regret +. regret;
    cum_value := !cum_value +. market_value;
    cum_revenue := !cum_revenue +. revenue;
    Stats.online_add mv_stats market_value;
    Stats.online_add rs_stats q_value;
    (match posted with Some p -> Stats.online_add post_stats p | None -> ());
    Stats.online_add regret_stats regret;
    (match journal with
    | Some sink ->
        let price_index, lower, upper = audit in
        sink
          {
            t;
            x = phi;
            reserve = q_value;
            kind;
            price_index;
            lower;
            upper;
            posted;
            accepted;
            payment = revenue;
          }
    | None -> ());
    (match logs with
    | Some cell ->
        cell :=
          {
            index = t;
            reserve = q_value;
            market_value;
            posted;
            kind;
            accepted;
            revenue;
            regret;
          }
          :: !cell
    | None -> ());
    while !next_check < n_checks && checkpoints.(!next_check) = t + 1 do
      cum_regret_at.(!next_check) <- !cum_regret;
      cum_value_at.(!next_check) <- !cum_value;
      ratio_at.(!next_check) <-
        (if !cum_value > 0. then !cum_regret /. !cum_value else 0.);
      incr next_check
    done
  done;
  {
    rounds;
    total_regret = !cum_regret;
    total_value = !cum_value;
    total_revenue = !cum_revenue;
    regret_ratio =
      (if !cum_value > 0. then !cum_regret /. !cum_value else 0.);
    series =
      {
        checkpoints;
        cumulative_regret = cum_regret_at;
        cumulative_value = cum_value_at;
        regret_ratio = ratio_at;
      };
    market_value_stats = Stats.summarize mv_stats;
    reserve_stats = Stats.summarize rs_stats;
    posted_stats = Stats.summarize post_stats;
    regret_stats = Stats.summarize regret_stats;
    exploratory = !exploratory;
    conservative = !conservative;
    skipped = !skipped;
    accepted_rounds = !accepted_rounds;
    logs = Option.map (fun cell -> Array.of_list (List.rev !cell)) logs;
  }

type shard_mode = Exact | Warm_start of { stride : int }

(* Kind codes for the per-round scratch arrays of [run_sharded]: a
   [kind] is stored as an int so the array is unboxed. *)
let code_skip = 0
and code_exploratory = 1
and code_conservative = 2
and code_baseline = 3

let kind_of_code = function
  | 0 -> Skipped
  | 1 -> Exploratory
  | 2 -> Conservative
  | _ -> Baseline

let run_sharded ?checkpoints ?(record_rounds = false) ?journal ?(mode = Exact)
    ?(shards = 8) ?pool ~policy ~model ~noise ~workload ~rounds () =
  if rounds < 1 then invalid_arg "Broker.run_sharded: need at least one round";
  let journaling = Option.is_some journal in
  if shards < 1 then invalid_arg "Broker.run_sharded: need at least one shard";
  (match mode with
  | Warm_start { stride } when stride < 1 ->
      invalid_arg "Broker.run_sharded: warm-start stride must be positive"
  | Warm_start _ | Exact -> ());
  (match policy with
  | Custom _ ->
      invalid_arg
        "Broker.run_sharded: Custom policies carry opaque learner state that \
         cannot be snapshotted across shard boundaries"
  | Risk_averse | Ellipsoid_pricing _ -> ());
  let checkpoints =
    resolve_checkpoints ~fname:"Broker.run_sharded" ~rounds checkpoints
  in
  (* The shard count is decoupled from the pool size so the output is
     byte-identical whatever [--jobs] is in force (the repo-wide
     determinism contract); it only changes which boundary states
     warm-start replays from and how the per-shard Stats accumulators
     associate. *)
  let shards = min shards rounds in
  let bounds = Array.init (shards + 1) (fun k -> k * rounds / shards) in
  let pool = match pool with Some _ as p -> p | None -> Pool.get_default () in
  let pfor ?chunk n body =
    match pool with
    | Some p -> Pool.parallel_for p ?chunk n body
    | None -> if n > 0 then body 0 n
  in
  let theta = model.Model.theta in
  let link = model.Model.link in
  let with_reserve = uses_reserve policy in
  let need_reserve_index =
    match policy with Ellipsoid_pricing _ -> true | _ -> false
  in
  (* Phase A: materialize every round's inputs in parallel.  Requires
     [workload]/[noise] to be pure functions of [t] (see the mli). *)
  let phi = Array.make rounds theta in
  let reserve_v = Array.make rounds 0. in
  let reserve_ix = Array.make rounds 0. in
  let market_ix = Array.make rounds 0. in
  let market_v = Array.make rounds 0. in
  pfor rounds (fun lo hi ->
      for t = lo to hi - 1 do
        let x_raw, q_value = workload t in
        let p = Model.feature_map model x_raw in
        phi.(t) <- p;
        reserve_v.(t) <- q_value;
        if need_reserve_index then reserve_ix.(t) <- link.Model.g_inv q_value;
        let mi = Vec.dot p theta +. noise t in
        market_ix.(t) <- mi;
        market_v.(t) <- link.Model.g mi
      done);
  (* Phase B: the pricing decisions.  Risk-averse is stateless, so it
     shards trivially; the ellipsoid mechanism replays sequentially in
     exact mode, or per shard from boundary snapshots in warm-start
     mode. *)
  let kindc = Array.make rounds code_skip in
  let posted = Array.make rounds 0. in
  let accepted = Array.make rounds false in
  (* Per-round audit fields (index-space price and decision-time
     bounds) are only materialized when a journal sink is installed. *)
  let pix = if journaling then Array.make rounds Float.nan else [||] in
  let low_b = if journaling then Array.make rounds Float.nan else [||] in
  let up_b = if journaling then Array.make rounds Float.nan else [||] in
  (match policy with
  | Custom _ -> assert false (* rejected above *)
  | Risk_averse ->
      pfor rounds (fun lo hi ->
          for t = lo to hi - 1 do
            kindc.(t) <- code_baseline;
            posted.(t) <- reserve_v.(t);
            accepted.(t) <- reserve_v.(t) <= market_v.(t);
            if journaling then pix.(t) <- link.Model.g_inv reserve_v.(t)
          done)
  | Ellipsoid_pricing mech ->
      let replay m lo hi =
        for t = lo to hi - 1 do
          let decision = Mechanism.decide m ~x:phi.(t) ~reserve:reserve_ix.(t) in
          let acc =
            match decision with
            | Mechanism.Skip -> false
            | Mechanism.Post { price; _ } -> price <= market_ix.(t)
          in
          Mechanism.observe m ~x:phi.(t) decision ~accepted:acc;
          accepted.(t) <- acc;
          match decision with
          | Mechanism.Skip -> kindc.(t) <- code_skip
          | Mechanism.Post { price; kind; lower; upper } ->
              kindc.(t) <-
                (match kind with
                | Mechanism.Exploratory -> code_exploratory
                | Mechanism.Conservative -> code_conservative);
              posted.(t) <- link.Model.g price;
              if journaling then begin
                pix.(t) <- price;
                low_b.(t) <- lower;
                up_b.(t) <- upper
              end
        done
      in
      (match mode with
      | Exact -> replay mech 0 rounds
      | Warm_start { stride } ->
          let snaps = Array.make shards (Mechanism.snapshot_binary mech) in
          (* Skeleton pass: walk the stream once on the caller's
             mechanism, observing every [stride]-th round, and snapshot
             the state at each shard boundary.  Rounds past the last
             boundary cannot influence any snapshot, so stop there. *)
          let skeleton_end = bounds.(shards - 1) in
          let next_shard = ref 1 in
          for t = 0 to skeleton_end - 1 do
            while !next_shard < shards && bounds.(!next_shard) = t do
              snaps.(!next_shard) <- Mechanism.snapshot_binary mech;
              incr next_shard
            done;
            if t mod stride = 0 then begin
              let decision =
                Mechanism.decide mech ~x:phi.(t) ~reserve:reserve_ix.(t)
              in
              let acc =
                match decision with
                | Mechanism.Skip -> false
                | Mechanism.Post { price; _ } -> price <= market_ix.(t)
              in
              Mechanism.observe mech ~x:phi.(t) decision ~accepted:acc
            end
          done;
          while !next_shard < shards do
            snaps.(!next_shard) <- Mechanism.snapshot_binary mech;
            incr next_shard
          done;
          pfor ~chunk:1 shards (fun klo khi ->
              for k = klo to khi - 1 do
                let m =
                  match Mechanism.restore snaps.(k) with
                  | Ok m -> m
                  | Error e ->
                      failwith
                        ("Broker.run_sharded: snapshot round-trip failed: " ^ e)
                in
                replay m bounds.(k) bounds.(k + 1)
              done)));
  (* Phase C: per-shard accounting — regret/revenue per round, plus a
     private Stats accumulator and counter set per shard. *)
  let regret = Array.make rounds 0. in
  let revenue = Array.make rounds 0. in
  let mv_st = Array.init shards (fun _ -> Stats.online_create ()) in
  let rs_st = Array.init shards (fun _ -> Stats.online_create ()) in
  let post_st = Array.init shards (fun _ -> Stats.online_create ()) in
  let reg_st = Array.init shards (fun _ -> Stats.online_create ()) in
  let expl = Array.make shards 0 in
  let cons = Array.make shards 0 in
  let skip = Array.make shards 0 in
  let acc_rounds = Array.make shards 0 in
  let logs =
    if record_rounds then
      Some
        (Array.make rounds
           {
             index = 0;
             reserve = 0.;
             market_value = 0.;
             posted = None;
             kind = Skipped;
             accepted = false;
             revenue = 0.;
             regret = 0.;
           })
    else None
  in
  pfor ~chunk:1 shards (fun klo khi ->
      for k = klo to khi - 1 do
        for t = bounds.(k) to bounds.(k + 1) - 1 do
          let q_value = reserve_v.(t) and market_value = market_v.(t) in
          let posted_opt =
            if kindc.(t) = code_skip then None else Some posted.(t)
          in
          let r =
            match posted_opt with
            | None -> Regret.skipped ~reserve:q_value ~market_value
            | Some p ->
                if with_reserve then
                  Regret.posted ~reserve:q_value ~market_value ~price:p ()
                else Regret.posted ~market_value ~price:p ()
          in
          let rev =
            match posted_opt with Some p when accepted.(t) -> p | _ -> 0.
          in
          regret.(t) <- r;
          revenue.(t) <- rev;
          if kindc.(t) = code_exploratory then expl.(k) <- expl.(k) + 1
          else if kindc.(t) = code_conservative then cons.(k) <- cons.(k) + 1
          else if kindc.(t) = code_skip then skip.(k) <- skip.(k) + 1;
          if accepted.(t) then acc_rounds.(k) <- acc_rounds.(k) + 1;
          Stats.online_add mv_st.(k) market_value;
          Stats.online_add rs_st.(k) q_value;
          (match posted_opt with
          | Some p -> Stats.online_add post_st.(k) p
          | None -> ());
          Stats.online_add reg_st.(k) r;
          match logs with
          | Some arr ->
              arr.(t) <-
                {
                  index = t;
                  reserve = q_value;
                  market_value;
                  posted = posted_opt;
                  kind = kind_of_code kindc.(t);
                  accepted = accepted.(t);
                  revenue = rev;
                  regret = r;
                }
          | None -> ()
        done
      done);
  (* Journal emission happens once per round, in round order, exactly
     as [run] would — so a sink observes an identical event stream
     from either entry point (Custom is rejected above). *)
  (match journal with
  | Some sink ->
      for t = 0 to rounds - 1 do
        let posted_opt =
          if kindc.(t) = code_skip then None else Some posted.(t)
        in
        sink
          {
            t;
            x = phi.(t);
            reserve = reserve_v.(t);
            kind = kind_of_code kindc.(t);
            price_index = pix.(t);
            lower = low_b.(t);
            upper = up_b.(t);
            posted = posted_opt;
            accepted = accepted.(t);
            payment = revenue.(t);
          }
      done
  | None -> ());
  (* Phase D: ordered merge.  The series and totals re-walk the
     per-round arrays sequentially so every float addition happens in
     the same order as [run] — merging per-shard partial sums instead
     would drift by reassociation ulps and break the byte-identity
     contract.  The Stats moments go through [Stats.merge], which is
     where the documented mean/std tolerance comes from. *)
  let n_checks = Array.length checkpoints in
  let cum_regret_at = Array.make n_checks 0. in
  let cum_value_at = Array.make n_checks 0. in
  let ratio_at = Array.make n_checks 0. in
  let next_check = ref 0 in
  let cum_regret = ref 0. in
  let cum_value = ref 0. in
  let cum_revenue = ref 0. in
  for t = 0 to rounds - 1 do
    cum_regret := !cum_regret +. regret.(t);
    cum_value := !cum_value +. market_v.(t);
    cum_revenue := !cum_revenue +. revenue.(t);
    while !next_check < n_checks && checkpoints.(!next_check) = t + 1 do
      cum_regret_at.(!next_check) <- !cum_regret;
      cum_value_at.(!next_check) <- !cum_value;
      ratio_at.(!next_check) <-
        (if !cum_value > 0. then !cum_regret /. !cum_value else 0.);
      incr next_check
    done
  done;
  let merged st =
    Stats.summarize (Array.fold_left Stats.merge (Stats.online_create ()) st)
  in
  let total = Array.fold_left ( + ) 0 in
  {
    rounds;
    total_regret = !cum_regret;
    total_value = !cum_value;
    total_revenue = !cum_revenue;
    regret_ratio = (if !cum_value > 0. then !cum_regret /. !cum_value else 0.);
    series =
      {
        checkpoints;
        cumulative_regret = cum_regret_at;
        cumulative_value = cum_value_at;
        regret_ratio = ratio_at;
      };
    market_value_stats = merged mv_st;
    reserve_stats = merged rs_st;
    posted_stats = merged post_st;
    regret_stats = merged reg_st;
    exploratory = total expl;
    conservative = total cons;
    skipped = total skip;
    accepted_rounds = total acc_rounds;
    logs;
  }
