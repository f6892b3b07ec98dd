(** Adaptive Radix Tree (Leis et al., ICDE 2013) with Optimistic Lock
    Coupling — the fastest comparator in the paper's §6 evaluation.

    Keys are converted to binary-comparable byte strings ([K.to_binary])
    with a NUL terminator, the standard ART contract: no stored key's
    terminated encoding may be a proper prefix of another's (all the
    workload key types satisfy this; violations raise [Failure]). Inner
    nodes adapt among Node4/Node16/Node48/Node256 with pessimistic path
    compression. Readers validate per-node versions; writers lock only the
    nodes they mutate. *)

exception Restart
(** Internal retry signal; never escapes the public functions. *)

module Make (K : Bwtree.KEY) (V : Bwtree.VALUE) : sig
  type key = K.t
  type value = V.t
  type t

  val create : ?obs:Bw_obs.sink -> unit -> t
  (** [obs] (default {!Bw_obs.Null}, which counts nothing) receives the
      Table 3 event counters. *)

  val insert : t -> tid:int -> key -> value -> bool
  val lookup : t -> tid:int -> key -> value option
  val update : t -> tid:int -> key -> value -> bool
  val delete : t -> tid:int -> key -> bool

  val scan : t -> tid:int -> key -> n:int -> (key -> value -> unit) -> int
  (** Ordered depth-first traversal handing up to [n] items from the
      first key >= the argument to the visitor; restarts wholesale on
      concurrent interference (the cost the paper notes for ART
      iteration), emitting only after a whole attempt validates. *)

  val cardinal : t -> int
  val memory_words : t -> int
end
