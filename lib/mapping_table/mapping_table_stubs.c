/* Compare-and-swap on one slot of a mapping-table chunk.

   A chunk is a plain OCaml array of element pointers, so the CaS goes
   through the runtime's own field CaS: the same sequentially consistent
   compare-exchange and write barrier [Atomic.compare_and_set] performs
   on a one-field block, applied to field [i] of the chunk. It neither
   allocates nor raises, so the external is declared [@@noalloc]. */

#include <caml/mlvalues.h>
#include <caml/memory.h>

value bw_mapping_table_cas(value chunk, value i, value expect, value repl)
{
  return Val_bool(caml_atomic_cas_field(chunk, Long_val(i), expect, repl));
}
