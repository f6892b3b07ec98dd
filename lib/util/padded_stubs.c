/* Sequentially consistent loads, stores and fetch-and-adds on one word
   of an int array: what Atomic.get, Atomic.set and Atomic.fetch_and_add
   do to field 0 of a one-field block, applied to field [i]. Only
   immediates are stored, so no write barrier is needed, and nothing
   allocates or raises: the externals are [@@noalloc]. The caller checks
   [i]. */

#include <caml/mlvalues.h>
#include <caml/camlatomic.h>

static atomic_intnat *word(value a, value i)
{
  return (atomic_intnat *)&Op_val(a)[Long_val(i)];
}

value bw_padded_get(value a, value i)
{
  return (value)atomic_load(word(a, i));
}

value bw_padded_set(value a, value i, value v)
{
  atomic_store(word(a, i), (intnat)v);
  return Val_unit;
}

/* Tagged ints add as 2n: [Val_long(x) + 2n = Val_long(x + n)]. */
value bw_padded_fetch_add(value a, value i, value n)
{
  return (value)atomic_fetch_add(word(a, i), 2 * Long_val(n));
}
