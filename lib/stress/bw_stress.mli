(** Multi-domain stress and invariant-check harness.

    Runs configurable insert/read/update/remove/scan mixes across N worker
    domains against any index, while concurrently driving epoch advancement
    and mapping-table allocate/free churn, and checks global invariants at
    phase barriers:

    - {b No lost or duplicated keys.} Each worker owns a disjoint key
      stripe and records every operation with its observed result in a
      per-thread journal. At each barrier the journals are replayed against
      a sequential oracle: on a worker's own stripe every result must match
      the oracle exactly; cross-stripe reads are checked for value
      provenance (every value encodes its key). A full sweep of the key
      space then compares the index against the union of the oracles, both
      for presence and for absence.
    - {b No leaked garbage.} With every worker quiesced, [Epoch.flush]
      must bring [Epoch.pending] to zero — the property the reclamation
      race fixes of this PR guarantee.
    - {b Mapping-table accounting.} Live ids are globally distinct, every
      live cell still reads the value its allocator installed, and
      [live + free-list length = high water] whenever churn is paused.
    - {b Bounded delta chains} and the tree's own {!Bwtree.S.verify_invariants}
      structural check.

    Violations are collected as strings rather than raised, so a long
    soak run reports everything it saw. *)

(** Relative operation weights; they need not sum to anything. *)
type mix = {
  w_insert : int;
  w_read : int;
  w_update : int;
  w_remove : int;
  w_scan : int;
}

val default_mix : mix

type config = {
  domains : int;  (** worker domains (dense tids [0, domains)) *)
  keys_per_domain : int;  (** size of each worker's private key stripe *)
  ops_per_phase : int;  (** operations each worker runs between barriers *)
  phases : int;  (** barrier/check rounds (ignored with [time_budget_s]) *)
  time_budget_s : float option;
      (** long-running mode: keep cycling phases until this much wall
          clock has elapsed *)
  mix : mix;
  scan_len : int;
  seed : int;
  churn_domains : int;  (** extra domains churning a standalone mapping table *)
  churn_ops_per_phase : int;
  drive_advance : bool;  (** spawn a domain hammering [Epoch.advance] *)
  batch : int;
      (** > 1: workers buffer point ops and submit them through the
          subject's [s_batch] path in groups of this size (scans flush
          the pending group and run per-op) *)
  readers : int;
      (** the last [readers] workers only read — point lookups of keys in
          the writers' stripes, racing their inserts, removes and the
          splits and consolidations those trigger; must be < [domains] *)
  verbose : bool;  (** print a progress line per phase *)
}

val short_config : config
(** The [dune runtest] / [--short] shape: 4 workers, 2 churn domains, 3
    phases, a few hundred ops per worker per phase. *)

val read_heavy_config : config
(** [short_config] with one writer and three reader workers: the point
    read path (read-side consolidation) under a concurrent writer. *)

(** Point operations in batch-submission form; results mirror the point
    entry points ([Sb_values] for lookups, [Sb_applied] otherwise). *)
type batch_op =
  | Sb_insert of int * int
  | Sb_lookup of int
  | Sb_update of int * int
  | Sb_remove of int * int

type batch_res = Sb_applied of bool | Sb_values of int list

(** One index under stress. Probe fields may be [None] for indexes that
    do not expose them; the corresponding checks are skipped. *)
type subject = {
  s_name : string;
  s_unique : bool;  (** unique-key semantics (affects the oracle) *)
  s_insert : tid:int -> int -> int -> bool;
  s_lookup : tid:int -> int -> int list;
  s_update : tid:int -> int -> int -> bool;
  s_remove : tid:int -> int -> int -> bool;
      (** removes the exact (key, value) pair in non-unique mode *)
  s_scan : tid:int -> int -> int -> int;
  s_batch : (tid:int -> batch_op array -> batch_res array) option;
      (** multi-op submission path, exercised when [config.batch] > 1;
          results must be in submission order *)
  s_quiesce : tid:int -> unit;
  s_start_aux : unit -> unit;
  s_stop_aux : unit -> unit;
  s_obs : Bw_obs.sink;
      (** the subject's metrics sink, if any; lets the checker cross-check
          gauges against direct probes *)
  s_epoch : Epoch.t option;
  s_verify : (unit -> unit) option;
  s_max_chains : (unit -> int * int) option;
  s_chain_bound : int option;
      (** longest delta chain tolerated at a quiesced barrier *)
}

val bwtree_subject :
  ?config:Bwtree.config ->
  ?obs:Bw_obs.sink ->
  domains:int ->
  unit ->
  subject
(** A fresh integer-keyed Bw-Tree with every probe wired up.
    [config.max_threads] is raised to [domains + 1] if needed (the
    checker uses tid [domains]). Without [obs], or with {!Bw_obs.Null},
    the tree gets a private registry, so the pending-garbage gauge check
    reads real counts. *)

val of_driver : int Harness.Runner.driver -> subject
(** Wrap any harness driver (SkipList, B+Tree, ART, Masstree, …) as a
    probe-less unique-key subject. *)

type report = {
  r_ops : int;  (** index operations executed by workers *)
  r_churn_ops : int;  (** mapping-table churn operations *)
  r_phases : int;
  r_checks : int;  (** individual invariant assertions evaluated *)
  r_violations : string list;
  r_seconds : float;
  r_epoch : Epoch.stats option;  (** final epoch counters, if probed *)
}

val run : config -> subject -> report
(** Spawns the worker, churn and advancer domains, cycles the phases, and
    returns the aggregated report. A clean run has [r_violations = []]. *)

val pp_report : Format.formatter -> report -> unit

(** {1 Crash-recovery stress}

    Drives a durable (pagestore-backed) Bw-Tree — single tree or
    range-partitioned forest — through load → quiesced checkpoint →
    more load → simulated crash, then corrupts the WAL tail (torn
    truncation or a random bit flip, chosen per shard), recovers, and
    checks:

    - the replayed WAL ops form a prefix of each (worker, shard)
      applied-write journal — the durability contract of the
      group-commit WAL;
    - the recovered contents equal the checkpoint state plus exactly
      those replayed prefixes (full keyspace sweep);
    - the recovered store accepts new writes, and a checkpoint + clean
      reopen reproduces the same contents with an empty WAL.

    Each round wipes and reuses [cc_dir]; the dir is removed at the
    end. *)

type crash_config = {
  cc_domains : int;  (** writer domains (disjoint key stripes) *)
  cc_keys_per_domain : int;
  cc_ops_per_phase : int;  (** ops per worker, per phase (two phases) *)
  cc_batch : int;  (** > 1: submit through the batch/group-commit path *)
  cc_shards : int;  (** > 1: durable forest, one WAL per shard *)
  cc_fsync : bool;  (** fsync per commit (slow; off for tests) *)
  cc_segment_bytes : int;  (** small segments force multi-segment WALs *)
  cc_rounds : int;  (** independent crash/recover cycles *)
  cc_seed : int;
  cc_dir : string;  (** scratch data dir; wiped per round, removed at end *)
  cc_verbose : bool;
}

val short_crash_config : dir:string -> crash_config
(** A dune-runtest-sized configuration (3 domains, 3 rounds). *)

type crash_report = {
  cr_rounds : int;
  cr_ops : int;  (** applied writes journaled across all rounds *)
  cr_replayed : int;  (** WAL ops replayed over all recoveries *)
  cr_torn_bytes : int;
  cr_dropped_segments : int;
  cr_checks : int;
  cr_violations : string list;
}

val run_crash_recovery : crash_config -> crash_report

val pp_crash_report : Format.formatter -> crash_report -> unit
