(** Epoch-based safe memory reclamation (§2.3, §4.2).

    Lock-free readers may still hold references to nodes that a writer has
    unlinked, so unlinked objects are *retired* into the epoch system and
    only *reclaimed* once no thread can still observe them. Two schemes are
    implemented, matching the paper:

    - {b Centralized} (the original Bw-Tree / Fig. 5a): a linked list of
      epoch objects, each with an atomic membership counter. Every operation
      increments the current epoch's counter on entry and decrements it on
      exit — shared writes that become the scalability bottleneck the paper
      measures in Fig. 10. A background thread (or explicit {!advance}
      calls) appends new epochs and reclaims drained ones.

    - {b Decentralized} (OpenBw-Tree / Fig. 5b, after Silo and
      Deuteronomy): a global epoch counter that threads only read, a
      per-thread local epoch they publish to a private (unpadded) slot, and
      per-thread garbage lists tagged with the global epoch at retirement.
      A thread reclaims its own garbage older than the minimum of all
      published local epochs.

    In this OCaml reproduction "reclaiming" an object means dropping the
    epoch system's reference and counting it; the runtime GC then recycles
    the memory. The synchronization protocol — the thing whose cost the
    paper compares — is implemented in full.

    Thread ids [tid] must be dense in [\[0, max_threads)] and each used by
    at most one thread at a time. *)

type scheme =
  | Centralized
  | Decentralized
  | Disabled  (** no tracking: for single-threaded tests and ablations *)

type t

val create :
  scheme:scheme ->
  max_threads:int ->
  ?gc_threshold:int ->
  ?obs:Bw_obs.sink ->
  unit ->
  t
(** [gc_threshold] (default 1024, the paper's setting) is the local garbage
    list length that triggers a reclamation attempt in the decentralized
    scheme; in the centralized scheme reclamation happens on {!advance}.
    [obs] (default {!Bw_obs.Null}) receives reclaim-batch latencies and
    sizes, [Ev_reclaim] events, and registers the [G_epoch_pending] and
    [G_epoch_watermark_lag] gauge providers. *)

val scheme : t -> scheme

val op_begin : t -> tid:int -> unit
(** Enter epoch protection before touching index internals. *)

val op_end : t -> tid:int -> unit
(** Leave epoch protection; in the decentralized scheme this may reclaim
    local garbage. *)

val retire : t -> tid:int -> Obj.t -> unit
(** Hand an unlinked object to the epoch system. The caller must already
    have made it unreachable from the index. *)

val advance : t -> unit
(** Move time forward: append a new epoch object (centralized) or increment
    the global epoch (decentralized). Called by the background thread or
    cooperatively by the harness. Also attempts reclamation of drained
    centralized epochs. *)

val start_background : t -> interval_s:float -> unit
(** Spawn a domain that calls {!advance} every [interval_s] seconds (the
    paper uses 40 ms). No-op if one is already running or scheme is
    [Disabled]. *)

val stop_background : t -> unit
(** Stop and join the background domain, if any. Safe to call anytime. *)

val quiesce : t -> tid:int -> unit
(** Declare that thread [tid] will not touch the index until its next
    [op_begin]; its published epoch no longer holds back reclamation. *)

val flush : t -> unit
(** Drain everything that is safe to reclaim right now, assuming all
    threads are quiescent. For tests and shutdown. *)

type stats = {
  retired : int;       (** objects handed to {!retire} *)
  reclaimed : int;     (** objects released back to the runtime *)
  epochs_advanced : int;
  enters : int;        (** protected sections entered *)
}

val stats : t -> stats
val pending : t -> int
(** retired − reclaimed. *)

(**/**)

val test_retire_window : (unit -> unit) ref
(** Test-only scheduling hook: invoked by the centralized retire path
    between target-epoch selection and garbage publication, so regression
    tests can deterministically force an {!advance} into the race window.
    Must be restored to a no-op after use. *)

(**/**)
