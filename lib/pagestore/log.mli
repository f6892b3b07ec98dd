(** A log-structured flash store (the LLAMA substrate, §2.2/§8).

    The paper emphasizes that the Bw-Tree's mapping table exists not only
    for lock-free in-memory updates but "also serves the purpose of
    supporting log-structured updates when deployed with SSD": node
    pointers can designate flash offsets, and pages are written
    out-of-place to an append-only log. This module is that log, with two
    backends behind one API:

    - {b In-memory} ({!create}): fixed-size [Bytes] segments, the
      original simulated device. Dies with the process.
    - {b File-backed} ({!open_dir}): one file per segment under a data
      directory, written through on every append and made durable by
      {!sync}. Reopening the directory recovers the log; a torn tail
      (truncated or bit-flipped by a crash) is cut back to the longest
      valid record prefix.

    Both backends share the record format:
    {v magic (1B, 0xA5) | length (4B LE) | crc32 (4B LE) | payload v}
    Records never span segments. On disk, a segment that filled up and
    handed off to a successor ends with a one-byte seal marker (0x5E), so
    recovery can tell a cleanly closed segment from one whose tail was
    torn exactly at a record boundary — without the seal, a truncation
    landing on a boundary would silently splice later segments onto a
    shortened one and recovery would no longer be prefix-shaped.

    Offsets are stable logical addresses (segment index ⋅ segment size +
    position) for the life of the log: records are never moved. Space is
    reclaimed a whole log at a time — [Store] writes each checkpoint into
    a fresh log and deletes the superseded one. *)

type t

type offset = int
(** Logical address of a record in the log. *)

val create : ?segment_bytes:int -> unit -> t
(** In-memory log. Default segment size 256 KiB. *)

(** What {!open_dir}'s recovery scan found. A fresh directory reports
    all zeros. *)
type open_stats = {
  os_records : int;  (** valid records recovered *)
  os_truncated_bytes : int;
      (** torn-tail bytes cut (including whole dropped segments) *)
  os_dropped_segments : int;
      (** segment files discarded because they sat past a corruption *)
}

val open_dir :
  ?segment_bytes:int -> ?readonly:bool -> dir:string -> unit -> t * open_stats
(** File-backed log rooted at [dir] (created if missing, along with
    missing parents). The segment size is fixed at directory creation
    (recorded in [log.meta]); on reopen the recorded value wins and
    [?segment_bytes] is ignored. The recovery scan walks segment files
    in order and truncates at the first invalid byte: everything from
    there on — including all later segment files — is discarded, so the
    surviving records are exactly the longest valid prefix.

    [?readonly] (default false) loads the same longest-valid-prefix image
    without mutating the directory at all: no creation, no truncation, no
    sweeps, no file descriptor held open. The stats still report what a
    writable open {e would} cut. The resulting log behaves like an
    in-memory one ({!dir} is [None]); appends land only in memory. Safe
    to point at a live store's directory from another process — e.g.
    [bwt_inspect --data-dir]. *)

val dir : t -> string option
(** The backing directory, or [None] for an in-memory log. *)

val sync : t -> unit
(** fsync the active segment file (no-op in memory or when nothing was
    appended since the last sync). Durability point for group commit. *)

val append : t -> string -> offset
(** Append one record; returns its address. File-backed logs write
    through to the segment file (durable after the next {!sync}).
    Raises [Invalid_argument] if the payload cannot fit a segment. *)

val read : t -> offset -> string
(** Fetch a record's payload. Raises [Failure] on an invalid address or a
    corrupted record (CRC mismatch). *)

val iter : t -> (offset -> string -> unit) -> unit
(** Visit every record (live and dead) in log order. *)

(** Accounting. *)

val records : t -> int
val bytes_used : t -> int
(** Total bytes occupied, headers included (seal markers excluded). *)

val segment_count : t -> int
val segment_bytes : t -> int

val close : t -> unit
(** Release the active file descriptor (after an fsync). In-memory: no-op.
    The log must not be used afterwards. *)

val segment_path : dir:string -> int -> string
(** Path of segment [i]'s file under [dir] — for tests that tear logs
    apart on purpose. *)

val corrupt_for_testing : t -> offset -> unit
(** Flip a byte of the record at [offset] so that {!read} fails its CRC
    check — a payload byte, or a stored-CRC header byte when the payload
    is empty (an empty record has no payload byte to flip; flipping past
    the header would hit the {e next} record's magic and truncate scans
    instead of failing the CRC). Write-through on file-backed logs.
    Tests only. *)
