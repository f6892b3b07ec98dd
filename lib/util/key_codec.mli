(** Binary-comparable key encodings.

    Trie-based indexes (ART, Masstree) need keys whose byte-wise
    lexicographic order matches the logical order (§6: "keys must be
    preprocessed to have a totally ordered binary form"). These codecs
    produce such encodings. *)

val of_int : int -> string
(** 8-byte big-endian encoding of a signed 63-bit OCaml int with the sign
    bit flipped, so that byte-wise comparison matches integer comparison
    (including negatives). *)

val to_int : string -> int
(** Inverse of {!of_int}. Raises [Invalid_argument] on malformed input:
    a slice that is not 8 bytes long, or one outside the image of
    {!of_int} (OCaml ints cover only the middle half of the 8-byte
    slices). *)

val int_at_least : string -> int option
(** The smallest int whose {!of_int} encoding sorts at or above the
    arbitrary binary string [s] — [Some min_int] when [s] sorts below
    every encoded int, [None] when it sorts above every encoded int
    (clamped exactly like [Bw_shard.Part.floor_int]). Scan start keys
    are lower bounds, not keys: a client's scan start or continuation
    cursor ([last ^ "\000"]) need not be exactly 8 bytes. *)

val of_string : string -> string
(** Identity: raw strings already compare byte-wise. *)

val slice64 : string -> int -> int64
(** [slice64 s i] reads the [i]-th 8-byte slice of [s] as a big-endian
    unsigned value, zero-padding past the end. Used by Masstree's layers. *)

val slice_count : string -> int
(** Number of 8-byte slices needed to cover the string (at least 1). *)
