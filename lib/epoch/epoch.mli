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
      per-thread local epoch they publish to a slot on a cache line of
      its own, and per-thread garbage lists tagged with the global epoch
      at retirement.
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
(** Start a systhread of the calling domain that calls {!advance} every
    [interval_s] seconds (the paper uses 40 ms). It spawns no domain, so
    it adds no participant to stop-the-world collections; it runs
    whenever the calling domain blocks and otherwise at the runtime's
    tick (~50 ms). No-op if one is already running or scheme is
    [Disabled].

    Lifetime: a domain cannot terminate while a systhread it started
    still runs, so call {!stop_background} before the starting domain
    returns; a [Domain.join] on it would otherwise never return. *)

val stop_background : t -> unit
(** Stop and join the background thread, if any. Safe to call anytime. *)

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

val padded_blocks : t -> (string * Obj.t) list
(** The {!Bw_util.Padded} arrays that hold the words an operation writes
    for its tid (the statistics, the centralized entry slot, the
    decentralized published epoch) and the decentralized global epoch,
    by name. For layout tests. *)

val background_domain : t -> int option
(** [Domain.self] of the domain the background thread runs on, once one
    has started; it stays set after {!stop_background}. For tests that
    pin that the advancer spawns no domain. *)

val test_retire_window : (unit -> unit) ref
(** Test-only scheduling hook: invoked by the centralized retire path
    between target-epoch selection and garbage publication, so regression
    tests can deterministically force an {!advance} into the race window.
    Must be restored to a no-op after use. *)

(**/**)
