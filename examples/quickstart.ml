(* Quickstart: create an OpenBw-Tree, use the basic key-value API, and
   peek at the structures the paper describes.

   Run with: dune exec examples/quickstart.exe *)

(* Instantiate the tree for int keys and int values. Any key type works as
   long as it can be compared and binary-encoded (see Bwtree.KEY). *)
module Tree = Bwtree.Make (Index_iface.Int_key) (Index_iface.Int_value)

let () =
  (* The default configuration is the fully-optimized OpenBw-Tree:
     pre-allocated delta records, fast consolidation, search shortcuts and
     decentralized epoch GC. [Bwtree.microsoft_config] gives the baseline
     Bw-Tree instead, and every knob can be set individually. A Bw_obs
     registry collects the tree's counters and latencies; without one
     ([Bw_obs.Null], the default) the tree counts nothing. *)
  let t = Tree.create ~obs:(Bw_obs.sink (Bw_obs.create ())) () in

  (* point operations *)
  assert (Tree.insert t 1 100);
  assert (Tree.insert t 2 200);
  assert (not (Tree.insert t 2 999)) (* duplicate keys are rejected *);
  assert (Tree.update t 2 201);
  assert (Tree.lookup t 2 = [ 201 ]);
  assert (Tree.delete t 1 100);
  assert (Tree.lookup t 1 = []);

  (* bulk load and range scans *)
  for k = 0 to 9_999 do
    ignore (Tree.insert t k (k * k))
  done;
  let first_five = Tree.scan t ~n:5 9_995 in
  Printf.printf "scan from 9995: %s\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%d->%d" k v) first_five));

  (* iterators can also walk backwards (Appendix C of the paper) *)
  let it = Tree.Iterator.seek t 5_000 in
  Tree.Iterator.prev it;
  (match Tree.Iterator.current it with
  | Some (k, _) -> Printf.printf "key before 5000: %d\n" k
  | None -> assert false);

  (* the physical structure: mapping table, delta chains, consolidations *)
  let ss = Tree.structure_stats t in
  let os = Tree.op_stats t in
  Printf.printf
    "tree: %d leaf + %d inner logical nodes, height %d\n\
     avg leaf delta-chain %.1f, avg leaf size %.1f items\n\
     %d splits, %d consolidations so far\n"
    ss.leaf_nodes ss.inner_nodes ss.depth ss.avg_leaf_chain ss.avg_leaf_size
    os.splits os.consolidations;
  Format.printf "%a@." Bwtree.pp_mapping_stats (Tree.mapping_table_stats t);

  (* multi-threaded use: give each worker domain a distinct tid and, for
     sustained workloads, start the epoch-advancing thread *)
  Tree.start_gc_thread t ();
  let workers =
    List.init 4 (fun tid ->
        Domain.spawn (fun () ->
            for i = 0 to 999 do
              ignore (Tree.insert t ~tid (100_000 + (i * 4) + tid) i)
            done;
            Tree.quiesce t ~tid))
  in
  List.iter Domain.join workers;
  Tree.stop_gc_thread t;
  Tree.verify_invariants t;
  Printf.printf "after 4 concurrent writers: %d keys, invariants hold\n"
    (Tree.cardinal t)
