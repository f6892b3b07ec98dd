(** Per-domain words on cache lines of their own.

    A word that one domain writes on every operation must not share a
    64-byte line with a word that another domain reads or writes on every
    operation: each store would pull the line away from the other core.
    OCaml 5.1 has no contended allocation ([Atomic.make_contended] is
    5.2), and the allocator may place any two blocks side by side, so a
    separate block is no guarantee. The padding therefore lives inside
    one block.

    A padded array holds [n] cells. Cell [c] owns the {!line_words} words
    from [index c]; a full line of padding words, never written after
    {!make}, lies before every cell and after the last one. Callers keep
    the words one domain writes per operation inside that domain's cell.

    Never instantiate at [float]: the index arithmetic assumes an ordinary
    one-word-per-slot array. *)

val line_words : int
(** Words in one 64-byte cache line: 8. *)

val first : int
(** [index 0]: one line of padding precedes the first cell. *)

val stride : int
(** Words from one cell to the next: its line and a line of padding. *)

val index : int -> int
(** [index c = first + stride * c], the array index of cell [c]'s first
    word. Hot paths in other libraries compute it from {!first} and
    {!stride} themselves: a call into another library is not inlined in
    the default (dev) build. *)

val length : int -> int
(** [length n] is the array length of [n] cells. *)

val make : int -> 'a -> 'a array
(** [make n v] is [n] cells, every word [v]. *)

val cells : 'a array -> int
(** The number of cells of a padded array. *)

(** {2 Atomic words}

    Sequentially consistent access to word [i] of an int array: the
    ordering {!Atomic.get}, {!Atomic.set} and {!Atomic.fetch_and_add}
    give field 0 of a one-field block, applied to a word in the middle of
    a block. Direct C calls that neither allocate nor check [i]: the
    caller passes an index below the array's length, normally [index c]
    for a cell [c]. *)

external get : int array -> int -> int = "bw_padded_get" [@@noalloc]
external set : int array -> int -> int -> unit = "bw_padded_set" [@@noalloc]

external fetch_and_add : int array -> int -> int -> int
  = "bw_padded_fetch_add"
[@@noalloc]
