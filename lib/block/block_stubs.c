/* RAID parity XOR behind Block.xor_into. Built at -O3 so the loop is
   vectorized; the OCaml side checks that [src] is at least as long as
   [dst] before calling in. */

#include <stddef.h>

#include <caml/mlvalues.h>

value repro_block_xor(value dst, value src)
{
  unsigned char *d = Bytes_val(dst);
  const unsigned char *s = (const unsigned char *)String_val(src);
  size_t n = caml_string_length(dst);
  for (size_t i = 0; i < n; i++) d[i] ^= s[i];
  return Val_unit;
}
