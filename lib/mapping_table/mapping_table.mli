(** The Bw-Tree's indirection layer (§2.2, §3.3).

    Maps logical node ids to physical pointers, so a single
    compare-and-swap redirects every logical link to a node at once.

    The paper grows the table by reserving a huge virtual address range and
    letting the OS fault in physical pages lazily (the KISS-tree trick), so
    memory is paid only for the ids actually handed out. OCaml cannot hook
    page faults into its heap, so this implementation reproduces the same
    pay-per-use property in two levels:
    - the directory is one atomic pointer to a plain array of chunks. It
      grows, and a chunk is faulted in, by copying the array and
      installing the copy with CaS (lock-free, no stop-the-world resize; a
      losing racer retries on the winner's copy). Untouched slots below
      the highest faulted chunk are holes that share one empty chunk;
    - a chunk is a flat array of [2{^chunk_bits}] element pointers, each
      slot starting as a private sentinel that {!get} reports as
      [dummy]. {!get} is one plain load of the slot; {!cas} is the
      runtime's field compare-and-swap on it (a C stub over
      [caml_atomic_cas_field]), the same instruction
      [Atomic.compare_and_set] issues on a one-field block.

    So a fresh table holds a few dozen words, and each allocated id costs
    one word: its chunk slot. Every fault copies the directory, which is
    one word per faulted-or-hole chunk: cheap at the default 1 Ki ids
    per chunk.

    Shrinking is impossible without blocking all threads, exactly as the
    paper concedes; {!rebuild_capacity_hint} documents that path.

    Ids of removed nodes (after node merges) are recycled through a
    lock-free Treiber stack. *)

type 'a t

val create :
  ?chunk_bits:int -> ?dir_bits:int -> ?obs:Bw_obs.sink -> dummy:'a -> unit ->
  'a t
(** [create ~dummy ()] makes an empty table: no chunk is faulted in.
    [dummy] is what every never-assigned id reads.
    Default geometry: [chunk_bits = 10] (1 Ki ids per chunk),
    [dir_bits = 18] (at most 2{^18} chunks ⇒ capacity 2{^28} ids). A
    chunk is faulted in by the first {!allocate} or {!set} in its range;
    reads never fault. [obs] (default {!Bw_obs.Null}) receives
    [Ev_mt_grow] events on chunk faults and registers the [G_mt_chunks]
    and [G_mt_free_ids] gauge providers. *)

val allocate : 'a t -> 'a -> int
(** Claim a fresh (or recycled) id and install the given pointer. *)

val get : 'a t -> int -> 'a
(** Current physical pointer for an id. *)

val cas : 'a t -> int -> expect:'a -> repl:'a -> bool
(** Atomic pointer swing; compares by physical equality. This is the single
    linearization primitive of the Bw-Tree. Always [false] on an id that
    was never allocated or {!set}. *)

val set : 'a t -> int -> 'a -> unit
(** Unconditional store — only for initialization and tests. A plain
    array write, so it must not race another [set] or {!allocate} of the
    same id. *)

val cas_unsafe : 'a t -> int -> expect:'a -> repl:'a -> bool
(** Non-atomic compare-then-store: a plain load, comparison and store with
    no read-modify-write instruction. Exists solely for the paper's §6.3
    "disable CaS" decomposition experiment and is only correct
    single-threaded. [false] on a never-allocated id, like {!cas}. *)

val free_id : 'a t -> int -> unit
(** Recycle an id whose node has been removed. The caller must guarantee
    (via epochs) that no thread can still traverse to it, and must not
    free the same id twice. The slot is reset to [dummy] strictly before
    the id becomes poppable by {!allocate}, so a recycled id never
    exposes its previous pointer. *)

val capacity : 'a t -> int
(** Maximum number of ids the directory geometry can address. *)

val chunks_allocated : 'a t -> int
val high_water : 'a t -> int
(** Highest id ever handed out, plus one. *)

val free_list_length : 'a t -> int

val rebuild_capacity_hint : 'a t -> int
(** The paper's only answer to shrinking: block the world and rebuild. This
    reports the id count a rebuilt table would need ([high_water] minus
    recycled ids) so a caller implementing offline rebuild can size it. *)
