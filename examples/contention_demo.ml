(* The §6.2 high-contention scenario in miniature: every worker appends
   monotonically increasing keys (a shared clock tagged with the thread
   id, standing in for RDTSC), so all inserts fight over the delta chain
   of the rightmost leaf. The Bw-Tree stays correct — the failed-CaS abort
   counters show the price of lock-freedom under contention.

   Run with: dune exec examples/contention_demo.exe *)

module Tree = Bwtree.Make (Index_iface.Int_key) (Index_iface.Int_value)

let run ~label ~nthreads ~per_thread keygen =
  let t = Tree.create ~obs:(Bw_obs.sink (Bw_obs.create ())) () in
  Tree.start_gc_thread t ();
  let t0 = Unix.gettimeofday () in
  let workers =
    List.init nthreads (fun tid ->
        Domain.spawn (fun () ->
            for i = 1 to per_thread do
              let k = keygen ~tid i in
              ignore (Tree.insert t ~tid k i)
            done;
            Tree.quiesce t ~tid))
  in
  List.iter Domain.join workers;
  let dt = Unix.gettimeofday () -. t0 in
  Tree.stop_gc_thread t;
  Tree.verify_invariants t;
  let os = Tree.op_stats t in
  let abort_rate =
    100.0 *. float_of_int os.restarts /. float_of_int os.inserts
  in
  Printf.printf
    "%-16s %d threads x %d inserts: %6.2f s, %7.3f Mops/s | failed CaS %6d \
     | abort rate %5.1f%% | splits %d\n%!"
    label nthreads per_thread dt
    (float_of_int (nthreads * per_thread) /. dt /. 1e6)
    os.failed_cas abort_rate os.splits;
  assert (Tree.cardinal t = nthreads * per_thread)

let () =
  let nthreads = 8 and per_thread = 20_000 in
  (* disjoint key ranges: essentially no contention *)
  run ~label:"disjoint" ~nthreads ~per_thread (fun ~tid i ->
      (tid * 10_000_000) + i);
  (* the right-edge storm: a shared monotonic clock, thread id in the low
     bits — every insert targets the same leaf *)
  let hc = Workload.Hc.create ~nthreads in
  run ~label:"high-contention" ~nthreads ~per_thread (fun ~tid _ ->
      Workload.Hc.next hc ~tid);
  print_endline
    "note: under high contention every thread hammers the rightmost leaf's \
     delta chain; failed CaS and aborts rise with true core parallelism \
     (on a single-core host only scheduler preemption interleaves the \
     threads) while correctness is preserved — the effect the paper \
     measures in Fig. 16/17 and Table 2."
