/* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) kernels behind
   Crc32.update_substring.

   Two kernels compute the same function on the running (pre-inverted)
   state:
   - a slicing-by-8 table loop, portable C, used for short inputs, for
     the head and tail of long ones, and on hosts without the folding
     kernel;
   - on x86-64 with PCLMULQDQ and SSE4.1, a carry-less-multiply fold of
     64 bytes per step followed by a Barrett reduction (Gopal et al.,
     "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
     Instruction", Intel, 2009).

   The OCaml side checks every bound before calling in, feeds at most
   1 MiB per call (these stubs are [@@noalloc] and never reach a GC
   safepoint), and calls [repro_crc32_setup] once, at module
   initialisation. That call is the only write to this file's globals. */

#include <stddef.h>
#include <stdint.h>

#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define REPRO_CRC32_FOLD 1
#include <cpuid.h>
#include <immintrin.h>
#endif

/* tab[k][n]: the state change of byte [n] followed by [k] zero bytes. */
static uint32_t tab[8][256];

static uint32_t crc_table(uint32_t c, const unsigned char *p, size_t n)
{
  while (n >= 8) {
    uint32_t lo = c ^ ((uint32_t)p[0] | (uint32_t)p[1] << 8
                       | (uint32_t)p[2] << 16 | (uint32_t)p[3] << 24);
    uint32_t hi = (uint32_t)p[4] | (uint32_t)p[5] << 8
                  | (uint32_t)p[6] << 16 | (uint32_t)p[7] << 24;
    c = tab[7][lo & 0xff] ^ tab[6][(lo >> 8) & 0xff]
        ^ tab[5][(lo >> 16) & 0xff] ^ tab[4][lo >> 24]
        ^ tab[3][hi & 0xff] ^ tab[2][(hi >> 8) & 0xff]
        ^ tab[1][(hi >> 16) & 0xff] ^ tab[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n--) c = tab[0][(c ^ *p++) & 0xff] ^ (c >> 8);
  return c;
}

#ifdef REPRO_CRC32_FOLD

/* Folding constants in the bit-reflected domain, P(x) = 0x104C11DB7:
   k1 = x^(4*128+32) mod P and k2 = x^(4*128-32) mod P fold 512 bits
   ahead; k3 = x^(128+32) mod P and k4 = x^(128-32) mod P fold 128 bits
   ahead; k5 = x^64 mod P folds 64 bits to 32. Each is bit-reflected and
   shifted left by one. P' is P reflected; mu = floor(x^64 / P)
   reflected, for the Barrett step. */
#define K1 0x154442bd4ULL
#define K2 0x1c6e41596ULL
#define K3 0x1751997d0ULL
#define K4 0x0ccaa009eULL
#define K5 0x163cd6124ULL
#define P_REFL 0x1db710641ULL
#define MU 0x1f7011641ULL

/* [n] is at least 64 and a multiple of 16. */
__attribute__((target("pclmul,sse4.1")))
static uint32_t crc_fold(uint32_t c, const unsigned char *p, size_t n)
{
  const __m128i *q = (const __m128i *)p;
  __m128i x1 = _mm_xor_si128(_mm_loadu_si128(q), _mm_cvtsi32_si128((int)c));
  __m128i x2 = _mm_loadu_si128(q + 1);
  __m128i x3 = _mm_loadu_si128(q + 2);
  __m128i x4 = _mm_loadu_si128(q + 3);
  __m128i k = _mm_set_epi64x(K2, K1);
  q += 4;
  n -= 64;

  /* Four independent 128-bit lanes, each folded 512 bits forward. */
  while (n >= 64) {
    __m128i l1 = _mm_clmulepi64_si128(x1, k, 0x00);
    __m128i l2 = _mm_clmulepi64_si128(x2, k, 0x00);
    __m128i l3 = _mm_clmulepi64_si128(x3, k, 0x00);
    __m128i l4 = _mm_clmulepi64_si128(x4, k, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k, 0x11);
    x4 = _mm_clmulepi64_si128(x4, k, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, l1), _mm_loadu_si128(q));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, l2), _mm_loadu_si128(q + 1));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, l3), _mm_loadu_si128(q + 2));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, l4), _mm_loadu_si128(q + 3));
    q += 4;
    n -= 64;
  }

  /* The four lanes into one, then any remaining 16-byte blocks. */
  k = _mm_set_epi64x(K4, K3);
#define FOLD16(x, next)                                         \
  x = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x11), \
                                  _mm_clmulepi64_si128(x, k, 0x00)), \
                    next)
  FOLD16(x1, x2);
  FOLD16(x1, x3);
  FOLD16(x1, x4);
  while (n >= 16) {
    FOLD16(x1, _mm_loadu_si128(q));
    q++;
    n -= 16;
  }
#undef FOLD16

  /* 128 bits to 64, then 64 to 32 by Barrett reduction. */
  __m128i lo32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k, 0x10));
  k = _mm_set_epi64x(0, K5);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, lo32), k, 0x00));
  k = _mm_set_epi64x(MU, P_REFL);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, lo32), k, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, lo32), k, 0x00);
  return (uint32_t)_mm_extract_epi32(_mm_xor_si128(x1, t), 1);
}

/* The table loop up to a 16-byte boundary, the fold over every whole
   16-byte block after it, the table loop over the rest. */
static uint32_t crc_pclmul(uint32_t c, const unsigned char *p, size_t n)
{
  if (n >= 80) {
    size_t head = (size_t)(-(uintptr_t)p & 15);
    c = crc_table(c, p, head);
    p += head;
    n -= head;
    size_t bulk = n & ~(size_t)15;
    c = crc_fold(c, p, bulk);
    p += bulk;
    n -= bulk;
  }
  return crc_table(c, p, n);
}

/* CPUID leaf 1, ECX: bit 1 is PCLMULQDQ, bit 19 is SSE4.1. */
static int cpu_has_fold(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  return (c & (1u << 1)) && (c & (1u << 19));
}

#else

static uint32_t crc_pclmul(uint32_t c, const unsigned char *p, size_t n)
{
  return crc_table(c, p, n);
}

static int cpu_has_fold(void) { return 0; }

#endif

/* Builds the tables; true when the folding kernel can run here. */
value repro_crc32_setup(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int i = 0; i < 8; i++) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    tab[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (int n = 0; n < 256; n++)
      tab[k][n] = tab[0][tab[k - 1][n] & 0xff] ^ (tab[k - 1][n] >> 8);
  return Val_bool(cpu_has_fold());
}

#define BYTES(s, pos) ((const unsigned char *)String_val(s) + (pos))

intnat repro_crc32_table(intnat crc, value s, intnat pos, intnat len)
{
  return crc_table((uint32_t)crc, BYTES(s, pos), (size_t)len);
}

value repro_crc32_table_byte(value crc, value s, value pos, value len)
{
  return Val_long(repro_crc32_table(Long_val(crc), s, Long_val(pos), Long_val(len)));
}

intnat repro_crc32_pclmul(intnat crc, value s, intnat pos, intnat len)
{
  return crc_pclmul((uint32_t)crc, BYTES(s, pos), (size_t)len);
}

value repro_crc32_pclmul_byte(value crc, value s, value pos, value len)
{
  return Val_long(repro_crc32_pclmul(Long_val(crc), s, Long_val(pos), Long_val(len)));
}

intnat repro_crc32_byte(intnat crc, intnat b)
{
  uint32_t c = (uint32_t)crc;
  return tab[0][(c ^ (uint32_t)b) & 0xff] ^ (c >> 8);
}

value repro_crc32_byte_byte(value crc, value b)
{
  return Val_long(repro_crc32_byte(Long_val(crc), Long_val(b)));
}
