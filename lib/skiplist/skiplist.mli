(** Lock-free skip list in the spirit of the "No Hot Spot" non-blocking
    skip list (Crain, Gramoli, Raynal — ICDCS 2013), the lock-free
    comparator of §6 of the paper.

    The bottom level is a Harris-style linked list (CaS insertion, marked
    pointers for logical deletion, cooperative unlinking). Deletion marks
    the whole tower top-down (Fraser) so traversals can physically unlink
    every level. *)

type tower_policy =
  | Background
      (** The paper's configuration: workers link only the data level; a
          maintenance thread periodically rebuilds the index levels, which
          it alone writes. Under insert bursts the index lags and searches
          degrade toward list walks — the §6.1 behaviour. *)
  | Inline
      (** Classic lock-free towers: the inserting thread raises its own
          tower with CaS per level (ablation A1). *)

module Make (K : Bwtree.KEY) (V : Bwtree.VALUE) : sig
  type key = K.t
  type value = V.t
  type t

  val create :
    ?policy:tower_policy -> ?interval_s:float -> ?obs:Bw_obs.sink -> unit -> t
  (** Default policy [Background] with a 10 ms maintenance interval. [obs]
      (default {!Bw_obs.Null}, which counts nothing) receives the Table 3
      event counters. *)

  val insert : t -> tid:int -> key -> value -> bool
  val lookup : t -> tid:int -> key -> value option
  val update : t -> tid:int -> key -> value -> bool
  val delete : t -> tid:int -> key -> bool

  val scan : t -> tid:int -> key -> n:int -> (key -> value -> unit) -> int
  (** Walks the data level from the first key >= the argument, handing up
      to [n] live items to the visitor in key order; returns the count
      visited. *)

  val start_aux : t -> unit
  (** Start the maintenance domain ([Background] policy only). *)

  val stop_aux : t -> unit

  val maintenance_pass : t -> unit
  (** One synchronous tower rebuild (what the background domain runs). *)

  val cardinal : t -> int
  val memory_words : t -> int

  val verify_invariants : t -> unit
  (** Data-level key ordering; quiescent callers only. *)
end
