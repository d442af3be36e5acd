(* What every workload reports about one pass, and the file and /proc
   helpers main.ml and the workloads share. *)

type pass = {
  rounds : int;
  seconds : float;  (** the timed loop, up to the final sync *)
  minor_words : float;
  minor_collections : int;
  major_collections : int;
  regret : float;
  value : float;
  exploratory : int;
  conservative : int;
  skipped : int;
  digest : int;  (** hash of every decision's kind, price bits and outcome *)
  recover_s : float;
  recover_ok : bool;
}

(* Everything a pass must reproduce exactly, compared bit for bit. *)
let same_decisions a b =
  a.rounds = b.rounds && a.digest = b.digest
  && Int64.equal (Int64.bits_of_float a.regret) (Int64.bits_of_float b.regret)
  && Int64.equal (Int64.bits_of_float a.value) (Int64.bits_of_float b.value)
  && a.exploratory = b.exploratory
  && a.conservative = b.conservative
  && a.skipped = b.skipped

let mix h v = (h * 1_000_003) + v

let mix_decision h ~kind ~price ~accepted =
  mix (mix (mix h kind) (Int64.to_int (Int64.bits_of_float price))) (Bool.to_int accepted)

(* The traced pass of a workload: the pass itself (to be checked against
   the untraced ones) and its per-layer metrics. *)
type traced = { tpass : pass; layers : (string * float) list }

module type WORKLOAD = sig
  type t

  val name : string

  val rounds : int
  (** decisions per pass *)

  val segments : int
  (** timed segments per pass; their times sum to the pass time *)

  val group : int
  (** latency samples per independent sample *)

  val setup : seed:int -> t
  (** input generation, before the first pass *)

  val pass :
    t -> dir:string -> lat:(int -> int -> unit) -> seg:(int -> int -> unit) -> pass
  (** one untraced pass from fresh mechanism and store state; [lat i ns]
      receives decision [i]'s latency and [seg j ns] segment [j]'s time *)

  val traced : t -> dir:string -> e2e_ns:float -> traced
  (** one traced pass; [e2e_ns] is the untraced median round time, the
      base of the tracing overhead.  The ladder's residual is taken
      against the traced pass's own round time, so host drift between
      the passes does not land in it. *)
end

(* Recovery runs twice after an untraced pass, and the faster time
   counts: recover_s is the minimum over twice as many samples.  Each
   starts from a collected heap, as a restarted process would, so the
   pass's garbage is not collected on its clock.  Both recoveries must
   pass their check. *)
let recover_twice recover =
  let once () =
    Gc.full_major ();
    recover ()
  in
  let s1, ok1 = once () in
  let s2, ok2 = once () in
  (Float.min s1 s2, ok1 && ok2)

(* Mean non-zero entries per feature vector of an input pool. *)
let mean_nnz xs =
  let nnz x = Array.fold_left (fun a v -> if v <> 0. then a + 1 else a) 0 x in
  float_of_int (Array.fold_left (fun acc x -> acc + nnz x) 0 xs)
  /. float_of_int (Array.length xs)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* Journal and snapshot bytes under a store directory (one level of
   tenant subdirectories at most). *)
let rec dir_bytes ~snapshots path =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat path f in
      if Sys.is_directory p then acc + dir_bytes ~snapshots p
      else
        let is_snap = Option.is_some (Dm_store.Snapshots.round_of f) in
        if is_snap = snapshots then acc + (Unix.stat p).Unix.st_size else acc)
    0 (Sys.readdir path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb () =
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* Steal ticks summed over the host's CPUs, from /proc/stat. *)
let steal_ticks () =
  match String.split_on_char '\n' (read_file "/proc/stat") with
  | first :: _ -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' first) with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> int_of_string steal
      | _ -> 0)
  | [] -> 0

(* The commit the checkout was made from, when it is a git work tree;
   read from .git directly so no process is started. *)
let git_rev () =
  let trim s = String.trim s in
  try
    let head = trim (read_file ".git/HEAD") in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      let r = String.sub head 5 (String.length head - 5) in
      let loose = Filename.concat ".git" r in
      if Sys.file_exists loose then trim (read_file loose)
      else
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ sha; name ] when name = r -> Some sha
            | _ -> None)
          (String.split_on_char '\n' (read_file ".git/packed-refs"))
        |> Option.value ~default:"unknown"
    else head
  with Sys_error _ -> "none (not a git checkout)"
