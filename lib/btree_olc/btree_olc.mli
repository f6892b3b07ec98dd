(** In-memory B+Tree with Optimistic Lock Coupling (Leis et al., DaMoN
    2016) — the lock-based baseline that §6 of the paper finds outperforms
    the Bw-Tree.

    Concurrency: every node carries a version word whose low bit is a
    write-lock. Readers sample versions, read optimistically and
    re-validate (restarting on interference); writers lock only the nodes
    they modify. Splits happen eagerly on the way down, so no operation
    ever holds more than two locks.

    Deletion removes keys without rebalancing (see DESIGN.md, "Known
    deviations"). *)

exception Restart
(** Internal retry signal; never escapes the public functions. *)

module Make (K : Bwtree.KEY) (V : Bwtree.VALUE) : sig
  type key = K.t
  type value = V.t

  type t
  (** A concurrent ordered map. All operations are safe to call from any
      number of domains; [tid] only labels the caller for the software
      event counters. *)

  val create : ?obs:Bw_obs.sink -> unit -> t
  (** [obs] (default {!Bw_obs.Null}, which counts nothing) receives the
      Table 3 event counters. *)

  val insert : t -> tid:int -> key -> value -> bool
  (** [false] if the key was already present. *)

  val lookup : t -> tid:int -> key -> value option
  val update : t -> tid:int -> key -> value -> bool
  val delete : t -> tid:int -> key -> bool

  val scan : t -> tid:int -> key -> n:int -> (key -> value -> unit) -> int
  (** [scan t ~tid k ~n visit] hands up to [n] items starting at the first
      key >= [k] to [visit] in key order, following the leaf sibling
      links, and returns the count visited. Items are buffered until the
      optimistic attempt validates, so a restart never double-reports. *)

  val verify_invariants : t -> unit
  (** Key ordering and range containment over the whole tree; quiescent
      callers only. Raises [Failure] on violation. *)

  val cardinal : t -> int
  val memory_words : t -> int
end
