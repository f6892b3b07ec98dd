(** Small numerical helpers for reporting results. *)

val median : float array -> float
(** Median of a copy of the input (input is not modified). Raises
    [Invalid_argument] on an empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0, 100\]], nearest-rank on a sorted
    copy. *)

val throughput_mops : ops:int -> seconds:float -> float
(** Million operations per second. *)
