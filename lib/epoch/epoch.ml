type scheme = Centralized | Decentralized | Disabled

module Pd = Bw_util.Padded

(* ------------------------------------------------------------------ *)
(* Centralized scheme (Fig. 5a)                                        *)
(* ------------------------------------------------------------------ *)

type cepoch = {
  id : int;
  counter : int Atomic.t;
  garbage : Obj.t list Atomic.t;
  next : cepoch option Atomic.t;
}

type centralized = {
  current : cepoch Atomic.t;
  head : cepoch Atomic.t;  (* oldest epoch still chained *)
  entered : cepoch option array;
      (* a {!Pd} array: cell [tid] is written by thread tid on every
         entry and exit *)
  (* Epochs unchained from [head] but whose counters had not yet drained
     when the collector passed; oldest first. Only touched under
     [advance_lock]. *)
  mutable deferred : cepoch list;
  advance_lock : Mutex.t;
}

let make_cepoch id =
  {
    id;
    counter = Atomic.make 0;
    garbage = Atomic.make [];
    next = Atomic.make None;
  }

(* ------------------------------------------------------------------ *)
(* Decentralized scheme (Fig. 5b)                                      *)
(* ------------------------------------------------------------------ *)

(* Sentinel for "thread is not holding the watermark back". *)
let idle = max_int

(* The published epochs, and the global one they are read from, live in
   {!Pd} arrays accessed with its sequentially consistent get/set: each
   op stores to its [local] cell twice and loads [global] once, and no
   cell shares a cache line with another. As 2-word blocks side by side,
   two tids' cells shared a line whenever the allocator placed them so.
   With the tree cursors already padded, padding the cells won 4 of 6
   ycsb-c-point pairs (median per-pair ratio 1.03, medians 1.18 M ->
   1.32 M ops/s) and removed a run-to-run swing of 1.08-1.43 M ops/s;
   it costs ~6 ns per op_begin/op_end pair on one domain (EXPERIMENTS.md,
   "Per-domain cache lines"). *)
type decentralized = {
  global : int array;  (* one cell: the epoch counter *)
  local : int array;  (* cell [tid]: its published epoch, or [idle] *)
  bags : (int * Obj.t) Bw_util.Growable.t array;  (* owner-only garbage *)
  gc_threshold : int;
  (* bag length at which thread tid next attempts collection; raised after
     each attempt so a stalled watermark cannot make every op_end rescan
     the whole bag *)
  next_collect : int array;
}

type impl =
  | C of centralized
  | D of decentralized
  | Off

type t = {
  impl : impl;
  obs : Bw_obs.sink;
  max_threads : int;
  (* Per-thread statistics, one {!Pd} cell per tid (words
     [w_enters], [w_retired], [w_reclaimed]); summed on read so hot paths
     never write to shared memory. *)
  counts : int array;
  (* Reclamations performed by collectors that have no thread identity of
     their own (the background advancer, foreground [flush]/[advance]
     callers). Kept atomic because any number of them may race. *)
  s_reclaimed_shared : int Atomic.t;
  advanced : int Atomic.t;
  mutable background : Thread.t option;
  bg_stop : bool Atomic.t;
  bg_domain : int Atomic.t;  (* [Domain.self] of the advancer; -1 before *)
}

type stats = {
  retired : int;
  reclaimed : int;
  epochs_advanced : int;
  enters : int;
}

(* Test-only scheduling hook: invoked by the centralized retire path after
   it has chosen a target epoch and before it publishes into that epoch's
   garbage list, so regression tests can force an [advance] into the race
   window deterministically. *)
let test_retire_window : (unit -> unit) ref = ref (fun () -> ())

let w_enters = 0
let w_retired = 1
let w_reclaimed = 2

(* The first word of [tid]'s cell in the padded per-tid arrays:
   [Pd.index tid], spelled out so that the per-op paths make no call into
   another library (such calls are not inlined in the default build).
   Checked, as the atomic accessors are not, and a tid past the last cell
   would land in the trailing padding. *)
let[@inline] cell t tid =
  if tid < 0 || tid >= t.max_threads then invalid_arg "Epoch: tid out of range";
  Pd.first + (Pd.stride * tid)

(* the global epoch: the one cell of [d.global] *)
let[@inline] global d = Pd.get d.global Pd.first

let bumpn t tid w n =
  let i = cell t tid + w in
  t.counts.(i) <- t.counts.(i) + n

let bump t tid w = bumpn t tid w 1

let sum t w =
  let acc = ref 0 in
  for tid = 0 to t.max_threads - 1 do
    acc := !acc + t.counts.(Pd.index tid + w)
  done;
  !acc

let d_watermark d =
  let w = ref idle in
  for tid = 0 to Pd.cells d.local - 1 do
    let v = Pd.get d.local (Pd.index tid) in
    if v < !w then w := v
  done;
  !w

let create ~scheme ~max_threads ?(gc_threshold = 1024) ?(obs = Bw_obs.Null) ()
    =
  let impl =
    match scheme with
    | Disabled -> Off
    | Centralized ->
        let e0 = make_cepoch 0 in
        C
          {
            current = Atomic.make e0;
            head = Atomic.make e0;
            entered = Pd.make max_threads None;
            deferred = [];
            advance_lock = Mutex.create ();
          }
    | Decentralized ->
        D
          {
            global = Pd.make 1 0;
            local = Pd.make max_threads idle;
            bags =
              Array.init max_threads (fun _ -> Bw_util.Growable.create ());
            gc_threshold;
            next_collect = Array.make max_threads gc_threshold;
          }
  in
  let t =
    {
      impl;
      obs;
      max_threads;
      counts = Pd.make max_threads 0;
      s_reclaimed_shared = Atomic.make 0;
      advanced = Atomic.make 0;
      background = None;
      bg_stop = Atomic.make false;
      bg_domain = Atomic.make (-1);
    }
  in
  Bw_obs.register_gauge obs Bw_obs.G_epoch_pending (fun () ->
      sum t w_retired - (sum t w_reclaimed + Atomic.get t.s_reclaimed_shared));
  Bw_obs.register_gauge obs Bw_obs.G_epoch_watermark_lag (fun () ->
      match t.impl with
      | D d ->
          let w = d_watermark d in
          if w = idle then 0 else global d - w
      | C c -> (Atomic.get c.current).id - (Atomic.get c.head).id
      | Off -> 0);
  t

let scheme t =
  match t.impl with C _ -> Centralized | D _ -> Decentralized | Off -> Disabled

(* --- centralized operations --- *)

let c_enter t c ~tid =
  let i = cell t tid in
  let rec go () =
    let e = Atomic.get c.current in
    ignore (Atomic.fetch_and_add e.counter 1);
    (* Validate after publishing: if the collector already unchained [e],
       our membership came too late to be seen — back out and rejoin the
       real current epoch. The collector reads the counter only after
       moving [head], so whenever it observes zero every late joiner is
       guaranteed to fail this check and retry. *)
    if e.id >= (Atomic.get c.head).id then c.entered.(i) <- Some e
    else begin
      ignore (Atomic.fetch_and_add e.counter (-1));
      go ()
    end
  in
  go ();
  t.counts.(i + w_enters) <- t.counts.(i + w_enters) + 1

let c_exit t c ~tid =
  let i = cell t tid in
  match c.entered.(i) with
  | None -> ()
  | Some e ->
      c.entered.(i) <- None;
      ignore (Atomic.fetch_and_add e.counter (-1))

let c_retire t c ~tid obj =
  (* Publish-then-validate, mirroring [c_enter]: push onto the current
     epoch's garbage list, then check that the epoch is still chained. If
     the collector unchained it while we were pushing, it may also have
     drained it already — in that case the push landed in a dead epoch and
     would leak forever. Steal back whatever the drain did not take and
     re-park it on the fresh current epoch; the exchange is atomic, so
     every object ends up on exactly one live garbage list and is
     reclaimed exactly once. *)
  let rec park objs =
    let e = Atomic.get c.current in
    !test_retire_window ();
    let rec push () =
      let old = Atomic.get e.garbage in
      if not (Atomic.compare_and_set e.garbage old (List.rev_append objs old))
      then push ()
    in
    push ();
    if e.id < (Atomic.get c.head).id then
      match Atomic.exchange e.garbage [] with
      | [] -> () (* the collector saw our push; nothing is stranded *)
      | stolen -> park stolen
  in
  park [ obj ];
  bump t tid w_retired

let c_reclaim_epoch t e =
  let g = Atomic.exchange e.garbage [] in
  (* [c_advance] runs from the background thread and from any foreground
     [flush]/[advance] caller, so this count cannot go into a per-thread
     row without breaking the "written only by thread tid" contract. *)
  let n = List.length g in
  ignore (Atomic.fetch_and_add t.s_reclaimed_shared n);
  if n > 0 && Bw_obs.enabled t.obs then begin
    Bw_obs.incr_anon t.obs Bw_obs.C_reclaim_batches;
    Bw_obs.event_anon t.obs Bw_obs.Ev_reclaim ~a:n ~b:e.id;
    (* tid out of stripe range lands on the shared stripe *)
    Bw_obs.observe t.obs ~tid:max_int Bw_obs.Val_reclaim_batch n
  end

let c_advance t c =
  Mutex.lock c.advance_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.advance_lock) @@ fun () ->
  let cur = Atomic.get c.current in
  let fresh = make_cepoch (cur.id + 1) in
  Atomic.set cur.next (Some fresh);
  Atomic.set c.current fresh;
  ignore (Atomic.fetch_and_add t.advanced 1);
  (* Unchain every epoch older than the new current into the deferred
     queue, then drain the prefix whose counters have reached zero. An
     epoch's garbage is reclaimed only when it and all older epochs have
     drained, which the prefix rule enforces. *)
  let rec unchain () =
    let h = Atomic.get c.head in
    if h.id < fresh.id then begin
      (match Atomic.get h.next with
      | Some n -> Atomic.set c.head n
      | None -> assert false);
      c.deferred <- c.deferred @ [ h ];
      unchain ()
    end
  in
  unchain ();
  let rec drain = function
    | e :: rest when Atomic.get e.counter = 0 ->
        c_reclaim_epoch t e;
        drain rest
    | rest -> rest
  in
  c.deferred <- drain c.deferred

(* --- decentralized operations --- *)

let d_begin t d ~tid =
  let i = cell t tid in
  Pd.set d.local i (global d);
  t.counts.(i + w_enters) <- t.counts.(i + w_enters) + 1

let d_collect t d ~tid =
  let bag = d.bags.(tid) in
  if Bw_util.Growable.length bag > 0 then begin
    let t0 = if Bw_obs.enabled t.obs then Bw_obs.now_ns () else 0 in
    let w = d_watermark d in
    let keep = Bw_util.Growable.create () in
    let freed = ref 0 in
    Bw_util.Growable.iter
      (fun ((tag, _) as item) ->
        if tag < w then incr freed else Bw_util.Growable.push keep item)
      bag;
    if !freed > 0 then begin
      Bw_util.Growable.clear bag;
      Bw_util.Growable.iter (fun item -> Bw_util.Growable.push bag item) keep;
      bumpn t tid w_reclaimed !freed;
      if Bw_obs.enabled t.obs then begin
        Bw_obs.observe t.obs ~tid Bw_obs.Lat_reclaim (Bw_obs.now_ns () - t0);
        Bw_obs.observe t.obs ~tid Bw_obs.Val_reclaim_batch !freed;
        Bw_obs.incr t.obs ~tid Bw_obs.C_reclaim_batches;
        Bw_obs.event t.obs ~tid Bw_obs.Ev_reclaim ~a:!freed
          ~b:(Bw_util.Growable.length bag)
      end
    end
    else
      (* The watermark is not moving: either no background thread is
         advancing the global epoch, or it is too slow for our retirement
         rate. Bump the epoch ourselves — a rare cold-path write that
         keeps the scheme's hot path contention-free. *)
      ignore (Pd.fetch_and_add d.global Pd.first 1)
  end;
  (* re-arm so the next attempt happens after Θ(threshold) more
     retirements, keeping collection amortized O(1) per retire even when
     nothing could be freed *)
  d.next_collect.(tid) <-
    Bw_util.Growable.length bag + max 1 (d.gc_threshold / 2)

let d_end t d ~tid =
  (* Release the watermark: between operations this thread holds no
     references, so it must publish [idle]. Re-publishing the global epoch
     here would pin the watermark forever once the thread issues its last
     operation, leaking every other thread's bags until an explicit
     [quiesce]. Publishing before collecting also lets this thread's own
     stale epoch stop holding back its own bag. *)
  Pd.set d.local (cell t tid) idle;
  if Bw_util.Growable.length d.bags.(tid) >= d.next_collect.(tid) then
    d_collect t d ~tid

let d_retire t d ~tid obj =
  Bw_util.Growable.push d.bags.(tid) (global d, obj);
  bump t tid w_retired

let d_advance t d =
  ignore (Pd.fetch_and_add d.global Pd.first 1);
  ignore (Atomic.fetch_and_add t.advanced 1)

(* --- dispatch --- *)

let op_begin t ~tid =
  match t.impl with
  | C c -> c_enter t c ~tid
  | D d -> d_begin t d ~tid
  | Off -> ()

let op_end t ~tid =
  match t.impl with
  | C c -> c_exit t c ~tid
  | D d -> d_end t d ~tid
  | Off -> ()

let retire t ~tid obj =
  match t.impl with
  | C c -> c_retire t c ~tid obj
  | D d -> d_retire t d ~tid obj
  | Off ->
      (* nothing holds the object; the runtime GC frees it immediately *)
      bump t tid w_retired;
      bump t tid w_reclaimed

let advance t =
  match t.impl with
  | C c -> c_advance t c
  | D d -> d_advance t d
  | Off -> ()

let quiesce t ~tid =
  match t.impl with
  | C c -> c_exit t c ~tid
  | D d -> Pd.set d.local (cell t tid) idle
  | Off -> ()

let flush t =
  match t.impl with
  | Off -> ()
  | C c ->
      (* Two advances push every retired object through the deferred queue
         provided all threads have exited their epochs. *)
      c_advance t c;
      c_advance t c
  | D d ->
      d_advance t d;
      for tid = 0 to t.max_threads - 1 do
        d_collect t d ~tid
      done

(* A systhread of the calling domain, not a domain of its own: every
   minor collection stops all domains, and a domain that only sleeps
   still has to be scheduled to take part, so each one taxes every
   collection (DESIGN.md, "Background loops run on systhreads"). The
   thread runs whenever its host blocks (joins, sleeps, waits on a
   socket) and otherwise at the runtime's tick. *)
let start_background t ~interval_s =
  match (t.impl, t.background) with
  | Off, _ | _, Some _ -> ()
  | (C _ | D _), None ->
      Atomic.set t.bg_stop false;
      let th =
        Thread.create
          (fun () ->
            Atomic.set t.bg_domain (Domain.self () :> int);
            while not (Atomic.get t.bg_stop) do
              Unix.sleepf interval_s;
              advance t
            done)
          ()
      in
      t.background <- Some th

let stop_background t =
  match t.background with
  | None -> ()
  | Some th ->
      Atomic.set t.bg_stop true;
      Thread.join th;
      t.background <- None

let stats t =
  {
    retired = sum t w_retired;
    reclaimed = sum t w_reclaimed + Atomic.get t.s_reclaimed_shared;
    epochs_advanced = Atomic.get t.advanced;
    enters = sum t w_enters;
  }

let padded_blocks t =
  ("counts", Obj.repr t.counts)
  ::
  (match t.impl with
  | C c -> [ ("entered", Obj.repr c.entered) ]
  | D d -> [ ("global", Obj.repr d.global); ("local", Obj.repr d.local) ]
  | Off -> [])

let background_domain t =
  match Atomic.get t.bg_domain with -1 -> None | id -> Some id

let pending t =
  let s = stats t in
  s.retired - s.reclaimed
