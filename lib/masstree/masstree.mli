(** Masstree (Mao, Kohler, Morris — EuroSys 2012): a trie of B+Tree layers
    keyed by successive 8-byte key slices, one of the paper's §6
    comparators.

    Each layer is a small B+Tree over one unsigned 64-bit slice of the
    binary key; a border entry can simultaneously hold terminal bindings
    (keys ending within its slice group) and a pointer to a deeper layer
    (keys that continue), so keys sharing prefixes share layers.
    Synchronization is version-lock optimistic (readers validate, writers
    lock, eager splits); border-link contents are CaS-updated.

    Simplifications vs. the original C++ are listed in DESIGN.md. *)

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
  (** Streams border nodes within each layer from the seek key's slice,
      descending into deeper layers depth-first; hands up to [n] items to
      the visitor once the attempt validates and returns the count. *)

  val cardinal : t -> int
  val memory_words : t -> int
end
