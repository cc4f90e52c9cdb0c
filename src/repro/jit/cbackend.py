"""Runtime-compiled C kernel engine (cffi + the system C compiler).

This is the engine behind ``backend='jit'``: every hot kernel as a
plain loop, written once in C, compiled to a shared library on first
use and loaded through cffi's ABI mode.  "JIT" is meant literally
— the library is built at runtime from the source below, cached by
content hash, so upgrading the kernels invalidates the cache
automatically.

Bit-identity contract
---------------------
Every kernel replays the numpy reference *operation for operation*:

* the FRSZ2 encode and the field-by-field decode
  (``frsz2_decode_gather``) are pure integer bit manipulation —
  identical by construction; the encode stores each field at its stored
  width as it makes it (a typed store for ``l`` in {8, 16, 32, 64}, a
  bit-pack into the block's own words otherwise), so the container is
  written once and no field array exists.  The block decoder
  (``frsz2_decode_tile``; a whole container is its one-row window)
  additionally decodes blocks whose values are all normal as an exact
  integer-times-power-of-two product, which yields the same bits (see
  ``DECODE_BLOCK_RUN``): in an exact-scale block (``l - 1 <= e_max <=
  2046``) the smallest nonzero value is normal and the largest finite,
  so ``c_sig * 2^(e_max - (l - 2) - 1023)`` neither rounds nor flushes.
  The aligned rungs (``l`` 16 and 32) decode such a block eight fields
  to a register: a field's ``c_sig < 2^52`` OR-ed into the bits of
  ``2^52`` is the double ``2^52 + c_sig``, and subtracting ``2^52``
  leaves ``c_sig`` exactly (``+0`` for ``0``): the exact integer
  conversion, spelled in 64-bit lanes; the same exact product and the
  sign bit follow;
* no decode takes a raw array pointer: each reads a container through
  its :class:`RowPointers`, whose constructor holds the arrays to the
  layout C indexes them by, and the gather checks every index it is
  handed;
* the SpMV kernels accumulate each row strictly sequentially in entry
  order, exactly like ``np.bincount`` (CSR) and the slot-wise ELL
  passes;
* the fused basis reductions (``fused_dot`` / ``fused_axpy``) follow the
  accumulation order written in :mod:`repro.fused.kernels` — eight
  independent lanes and a fixed tree per tile, a row-ordered sum per
  element — whatever the rows come from: float64 rows read in place,
  FRSZ2 containers decoded a row piece at a time, or — the aligned
  rungs — a block's fields decoded in the registers its lanes or its
  sums take, block by block, with every other block of the row decoded
  into the buffer and added in the same order; the walks of width two
  ``fused_dot2`` / ``fused_axpy2`` are two walks of width one, each
  operand with the bits of its own, walked once: a value read or decoded
  once joins both operands' lanes or sums;
* ``fused_norm2`` is ``fused_dot`` of a vector with itself, then the
  correctly rounded ``sqrt``; the Arnoldi step's two halves
  ``fused_step`` and ``fused_column`` are its two walks of width two,
  such norms and dots, the flags and the Givens columns (``hypot`` from
  libm, the function ``np.hypot`` calls) in the order of their Python
  bodies, :func:`repro.fused.kernels.step_rows` and
  :func:`~repro.fused.kernels.step_column`;
* the ILU(0) factorisation and the triangular sweeps perform each row's
  operations in the reference's order; the sweeps visit the *rows* in
  another one — chunks of consecutive rows, independent chunks
  interleaved (``prec_lower_trisolve`` below) — which is free because a
  row only ever reads rows that are finished, in either order.  Their
  factor values are sources like the fused kernels' rows: float64 read
  in place or one FRSZ2 container decoded a chunk at a time;
* the build forces ``-ffp-contract=off`` so the compiler cannot fuse a
  multiply-add into an FMA, which would change the rounding of every
  accumulation against the reference.

ISA clones
----------
The library is built for baseline x86-64, so that one cached file loads
on every CPU that shares the cache directory — and the routines whose
time is the decode and the lanes (``frsz2_encode``, ``decode_range``
and the units of the fused walks, ``dot_tile`` and ``axpy_run``) are
compiled a second time for ``x86-64-v4`` (``CLONED`` in ``C_SOURCE``, GCC/Clang
``target_clones``); the dynamic loader binds the widest clone the CPU
runs, and :attr:`CEngine.isa` names it.  Register width moves no bit:
every operation order above is written out, the two IEEE flags hold in
every clone, and a rounded product or sum is the same in a 128-bit and
in a 512-bit register — which the self-test checks at every load for
whichever clone was bound.  The register decoder of the aligned rungs
is written once, in plain C over GCC/Clang vector types of eight lanes
(no intrinsics), so the baseline clone, which a CPU without AVX-512
binds, runs the algorithm of the ``x86-64-v4`` clone in narrower
registers.  The SpMV kernels are not cloned (their
gathers gain nothing, measured).  A compiler that rejects the attribute
gets one retry with ``-DREPRO_NO_CLONES``, which is the plain build;
:attr:`CEngine.clone_fallback` then keeps its reason.  ``-march=native``
was measured equal and not taken: a cached library would be fatal
(``SIGILL``), not a named degrade, on any lesser CPU.

Threads
-------
The fused walks, the SpMV kernels and the two ILU(0) sweeps are
split over one pool of threads (pthreads inside ``C_SOURCE``, "one
pool, three clients" there).  The unit of a split is a tile of the
walk's grid (``fused_dot``, ``fused_dot2``), a run of eight pieces
(``fused_axpy``, ``fused_axpy2``) or a run of ``POOL_ROWS`` rows
(SpMV).  The caller
claims units from the last one down, the helpers from the first up, off
one atomic word.  Every unit writes only what is its own: the elements
of ``w`` or ``y`` in its range, each summed in the written order on one
thread, or the ``j`` partials of its tile per operand, into the
caller's buffer.  The caller adds the partials to each operand's
coefficients in tile order after the join, a round of ``FUSED_ROUND``
tiles at a time.  So no bit depends on
the thread count or on which thread took which unit; and since a call
on one thread takes its tiles last first, the self-test fails a
reduction in any other order.  Each thread's decode buffer is its slice
of the work buffer the source keeps (:class:`_Rows`: ``2 x FUSED_ROUND x
capacity`` partials, then ``threads x tile`` doubles); helpers allocate
nothing.

A triangular sweep is one split call too, of one unit per thread that
only names the thread's slice of the per-call work buffer
(:class:`ChunkSweep`: ``threads x SWEEP_CHUNKS x (stride + SWEEP_ROWS)``
doubles).  Its work is the lock-step groups of chunks the schedule
prepared, at most ``SWEEP_CHUNKS`` chunks of one level each, listed
level by level.  Every thread takes the next group off one *forward*
counter — not the pool's claim word, which hands the caller units last
first — waits until the chunks finished (a second counter, added with a
release after each group and read with an acquire) reach the number of
chunks in the levels below the group's, then runs it.  The rule is
safe:

* no deadlock, at any thread count: the groups are claimed in level
  order, so a thread only ever waits for groups claimed before its own;
  the earliest unfinished group has every lower level finished, hence
  its wait is over, and a thread holds it;
* no early read: the first group of a level ``>= l`` to start needs the
  count of every chunk below ``l`` first, so no chunk of a level
  ``>= l`` is counted until all lower ones are, and reaching the count
  proves them finished;
* no bit moves: a row keeps its entry order and its arithmetic, and
  reads only rows that are final — as on one thread, where every wait
  is already satisfied.

A waiting thread spins a bounded number of times, then yields the CPU,
so two threads on one CPU finish (``taskset -c 0``).

The pool has :attr:`CEngine.threads` threads, the caller included: the
CPUs in the process's affinity mask, or its share when it is one of
several worker processes (:func:`repro.jit.dispatch.share_cpus`).  It
starts with the first call that splits, and its helpers sleep on a
condition variable between calls.  A call runs alone when it reduces
fewer than ``POOL_MIN_WORK`` values, or when another thread of the
process holds the pool.  A forked child resets the pool and starts its
own helpers; unloading the library joins them.

The engine is only accepted by :func:`repro.jit.dispatch.load_engine`
after :mod:`repro.jit.selftest` verifies byte-equality on every kernel
family.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import subprocess
import sys
import sysconfig
import tempfile
from typing import Optional

import numpy as np

__all__ = ["CEngine", "ChunkSweep", "DenseRows", "RowPointers", "TileTable",
           "C_SOURCE"]

C_SOURCE = r"""
#include <float.h>
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdint.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

#define MANTISSA_MASK 0xFFFFFFFFFFFFFULL
#define IMPLICIT_BIT  (1ULL << 52)

/* ---- ISA clones --------------------------------------------------------
 * A CLONED routine is compiled once per target below and the loader binds
 * the widest the CPU runs ("default": the baseline code of a plain build);
 * why width moves no bit is in the module docstring.  Off x86-64 ELF /
 * GNU-compatible compilers the macro is empty — the plain build — and so
 * it is under REPRO_NO_CLONES, the retry for a compiler that rejected the
 * attribute, defined as a string saying why.  engine_isa() names the
 * bound clone, by the resolver's own order. */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) \
    && !defined(REPRO_NO_CLONES)
#define CLONED __attribute__((target_clones("default", "arch=x86-64-v4")))
const char *engine_isa(void)
{
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw")
        && __builtin_cpu_supports("avx512cd")
        && __builtin_cpu_supports("avx512dq")
        && __builtin_cpu_supports("avx512vl"))
        return "x86-64-v4";
    return "default";
}
#else
#define CLONED
const char *engine_isa(void) { return "baseline"; }
#endif
#ifndef REPRO_NO_CLONES
#define REPRO_NO_CLONES ""
#endif
const char *engine_clone_fallback(void) { return REPRO_NO_CLONES; }

static uint64_t d2u(double x) { uint64_t u; memcpy(&u, &x, 8); return u; }
static double u2d(uint64_t u) { double x; memcpy(&x, &u, 8); return x; }

/* Read one <=32-bit chunk; the straddle read of the following word is
 * clamped to the stream like the numpy gather (the shifted-in bits are
 * masked off either way).  Inlined by force, with read_packed: left to
 * its own count of their callers, gcc 12 makes the packed decode a third
 * slower. */
static inline __attribute__((always_inline)) uint64_t
get_chunk(const uint32_t *words, int64_t nwords, int64_t bitpos,
          int64_t nbits)
{
    int64_t wi = bitpos >> 5;
    int64_t off = bitpos & 31;
    int64_t nxt = wi + 1;
    if (nxt > nwords - 1)
        nxt = nwords - 1;
    uint64_t lo = words[wi];
    uint64_t hi = words[nxt];
    uint64_t combined = (lo >> off) | (off == 0 ? 0ULL : hi << (32 - off));
    uint64_t mask = nbits >= 64 ? ~0ULL : (1ULL << nbits) - 1ULL;
    return combined & mask;
}

/* FRSZ2 compression steps 2-5 (paper Section IV-A) for one value of a
 * block whose step-1 maximum is e_max: the l-bit field, sign first. */
static inline __attribute__((always_inline)) uint64_t
encode_field(double x, uint64_t e_max, int64_t l, int32_t rounding)
{
    uint64_t bits = d2u(x);
    uint64_t be = (bits >> 52) & 0x7FF;
    uint64_t sign = bits >> 63;
    uint64_t e_eff = be ? be : 1;
    uint64_t sig53 = (bits & MANTISSA_MASK) | (be ? IMPLICIT_BIT : 0);
    int64_t k = (int64_t)(e_max - e_eff);
    int64_t shift = 54 - l + k;
    uint64_t base = sig53;
    if (rounding) {
        int64_t half_bit = shift - 1;
        if (half_bit < 0) half_bit = 0;
        if (half_bit > 63) half_bit = 63;
        if (shift > 0 && shift <= 54)
            base = sig53 + (1ULL << half_bit);
    }
    int64_t pos = shift < 0 ? 0 : (shift > 63 ? 63 : shift);
    int64_t neg = -shift < 0 ? 0 : (-shift > 63 ? 63 : -shift);
    uint64_t c_sig = (base >> pos) << neg;
    if (rounding) {
        uint64_t limit = (1ULL << (l - 1)) - 1ULL;
        if (c_sig > limit)
            c_sig = limit;
    }
    return (sign << (l - 1)) | c_sig;
}

/* Step 6 for one block of an aligned layout: every field stored at its
 * slot width (a field is < 2^l, so the cast drops nothing), the slots a
 * short trailing block leaves over zeroed. */
#define ENCODE_BLOCK_RUN(TYPE)                                            \
    {                                                                     \
        TYPE *restrict p = (TYPE *)payload + i0;                          \
        for (int64_t k = 0; k < cnt; k++)                                 \
            p[k] = (TYPE)encode_field(xb[k], e_max, l, rounding);         \
        for (int64_t k = cnt; k < bs; k++)                                \
            p[k] = 0;                                                     \
        break;                                                            \
    }

/* Step 6 for the packed layout: a block's bit stream goes through a
 * 64-bit accumulator acc holding fill < 32 bits; a chunk of <= 32 bits
 * joins above them and a whole word leaves for *w as soon as it is full.
 * ENCODE_RUN fields are made at a time, in a loop of their own that
 * vectorises like the aligned ones. */
#define ENCODE_RUN 32
#define PUT_BITS(chunk, nbits)                                            \
    {                                                                     \
        acc |= (uint64_t)(chunk) << fill;                                 \
        fill += (nbits);                                                  \
        if (fill >= 32) {                                                 \
            *w++ = (uint32_t)acc;                                         \
            acc >>= 32;                                                   \
            fill -= 32;                                                   \
        }                                                                 \
    }

/* FRSZ2 compression steps 1-6: the whole stored payload — every byte of
 * it, in its stored width — and the block exponents.  The payload's kind:
 * 0/1/2/3 = aligned uint8/16/32/64 slots, 4 = packed uint32 word stream
 * with word-aligned blocks of wpb words (the decoders' too).  Returns 0 on
 * success, i+1 when x[i] is NaN/Inf.  The exponent scan is a plain max
 * reduction — no exit inside it, so it vectorises — and the offending
 * index is looked for only in a block whose largest biased exponent is
 * 0x7FF.  (The rounding != 0 body is not vectorised by gcc 12: its
 * data-dependent half-bit shift keeps it scalar, ~3 ns per value.) */
CLONED
int64_t frsz2_encode(const double *x, int64_t n, int64_t bs, int64_t l,
                     int32_t rounding, int32_t kind, int64_t wpb,
                     uint8_t *payload, int32_t *e_max_out)
{
    int64_t nb = (n + bs - 1) / bs;
    for (int64_t b = 0; b < nb; b++) {
        int64_t i0 = b * bs;
        int64_t cnt = (i0 + bs < n ? i0 + bs : n) - i0;
        const double *restrict xb = x + i0;
        uint64_t e_max = 1;  /* zeros and subnormals count as exponent 1 */
        for (int64_t k = 0; k < cnt; k++) {
            uint64_t be = (d2u(xb[k]) >> 52) & 0x7FF;
            e_max = be > e_max ? be : e_max;
        }
        if (e_max == 0x7FF)
            for (int64_t k = 0; k < cnt; k++)
                if (((d2u(xb[k]) >> 52) & 0x7FF) == 0x7FF)
                    return i0 + k + 1;
        e_max_out[b] = (int32_t)e_max;
        switch (kind) {
        case 0: ENCODE_BLOCK_RUN(uint8_t)
        case 1: ENCODE_BLOCK_RUN(uint16_t)
        case 2: ENCODE_BLOCK_RUN(uint32_t)
        case 3: ENCODE_BLOCK_RUN(uint64_t)
        default: {
            uint32_t *w = (uint32_t *)payload + b * wpb, *end = w + wpb;
            uint64_t acc = 0, run[ENCODE_RUN];
            int64_t fill = 0;
            for (int64_t k0 = 0; k0 < cnt; k0 += ENCODE_RUN) {
                int64_t len = cnt - k0 < ENCODE_RUN ? cnt - k0 : ENCODE_RUN;
                for (int64_t k = 0; k < len; k++)
                    run[k] = encode_field(xb[k0 + k], e_max, l, rounding);
                for (int64_t k = 0; k < len; k++) {
                    PUT_BITS(run[k] & 0xFFFFFFFFULL, l < 32 ? l : 32)
                    if (l > 32)
                        PUT_BITS(run[k] >> 32, l - 32)
                }
            }
            if (fill)
                *w++ = (uint32_t)acc;
            while (w < end)  /* what a short trailing block leaves over */
                *w++ = 0;
        }
        }
    }
    return 0;
}

/* FRSZ2 decompression steps 2-4 for one already-read field. */
static double decode_field(uint64_t f, int64_t e_max, int64_t l)
{
    uint64_t sig_mask = (1ULL << (l - 1)) - 1ULL;
    uint64_t sign = f >> (l - 1);
    uint64_t c_sig = f & sig_mask;
    uint64_t bits = sign << 63;
    if (c_sig != 0) {
        int64_t hsb = 63 - __builtin_clzll(c_sig);
        int64_t e = e_max - (l - 2 - hsb);
        if (e >= 1) {
            int64_t up = 52 - hsb < 0 ? 0 : 52 - hsb;
            int64_t down = hsb - 52 < 0 ? 0 : hsb - 52;
            uint64_t sig53 = (c_sig >> down) << up;
            bits |= ((uint64_t)e & 0x7FF) << 52;
            bits |= sig53 & MANTISSA_MASK;
        }
    }
    return u2d(bits);
}

/* On a little-endian host a packed stream's bytes hold its bits in order,
 * so a field of <= 57 bits whose first byte is 8 or more before the end
 * of the stream is one unaligned 8-byte load, a shift and a mask
 * (load_field).  LOADS_FIT says so for every field of a run whose last
 * field starts at bit last; the fields in the stream's last 8 bytes take
 * the clamped chunk reads, which return the same bits. */
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define LOADS_FIT(nwords, last, l)                                        \
    ((l) <= 57 && ((last) >> 3) + 8 <= 4 * (nwords))
#else
#define LOADS_FIT(nwords, last, l) 0
#endif

static inline __attribute__((always_inline)) uint64_t
load_field(const uint32_t *words, int64_t bitpos, int64_t l)
{
    uint64_t v;
    memcpy(&v, (const uint8_t *)words + (bitpos >> 3), sizeof v);
    return (v >> (bitpos & 7)) & ((1ULL << l) - 1ULL);
}

static inline __attribute__((always_inline)) uint64_t
read_packed(const uint32_t *words, int64_t nwords, int64_t bitpos, int64_t l)
{
    if (LOADS_FIT(nwords, bitpos, l))
        return load_field(words, bitpos, l);
    int64_t lo_bits = l < 32 ? l : 32;
    uint64_t val = get_chunk(words, nwords, bitpos, lo_bits);
    if (l > 32)
        val |= get_chunk(words, nwords, bitpos + 32, l - 32) << 32;
    return val;
}

static uint64_t read_slot(const uint8_t *payload, int32_t kind,
                          int64_t nwords, int64_t i, int64_t bs, int64_t l,
                          int64_t wpb)
{
    switch (kind) {
    case 0: return payload[i];
    case 1: return ((const uint16_t *)payload)[i];
    case 2: return ((const uint32_t *)payload)[i];
    case 3: return ((const uint64_t *)payload)[i];
    default: {
        int64_t block = i / bs;
        return read_packed((const uint32_t *)payload, nwords,
                           block * wpb * 32 + (i - block * bs) * l, l);
    }
    }
}

/* Decode cnt consecutive fields of ONE block into o[0..cnt).  FIELD
 * reads field k; CONV is the signed integer type c_sig converts from
 * (int32 when the slot is <= 32 bits wide, so SSE2 can vectorise it).
 *
 * Exact-scale blocks: when l <= 54 every c_sig < 2^53 converts to
 * double exactly, and when l - 1 <= e_max <= 2046 the smallest nonzero
 * value (c_sig = 1, biased exponent e_max - (l - 2)) is normal and the
 * largest is finite, so c_sig * 2^(e_max - (l - 2) - 1023) is an exact
 * product: the very bits decode_field assembles, with c_sig = 0 giving
 * +0 before the sign is OR-ed in.  No clz, no branch per value.  Every
 * other block (tiny/subnormal values, l >= 55, a corrupted exponent)
 * takes decode_field. */
#define DECODE_BLOCK_RUN(FIELD, CONV)                                     \
    if (exact) {                                                          \
        for (int64_t k = 0; k < cnt; k++) {                               \
            uint64_t f = (FIELD);                                         \
            double mag = (double)(CONV)(f & sig_mask) * scale;            \
            o[k] = u2d(d2u(mag) | ((f >> (l - 1)) << 63));                \
        }                                                                 \
    } else {                                                              \
        for (int64_t k = 0; k < cnt; k++)                                 \
            o[k] = decode_field((FIELD), e_max, l);                       \
    }

/* The bits of the scale 2^(e_max - (l - 2) - 1023) of an exact-scale
 * block (DECODE_BLOCK_RUN), or 0: the block takes decode_field. */
static inline __attribute__((always_inline)) uint64_t
exact_scale(int64_t e_max, int64_t l)
{
    return l <= 54
        && (uint64_t)(e_max - (l - 1)) <= (uint64_t)(2046 - (l - 1))
        ? (uint64_t)(e_max - (l - 2)) << 52 : 0;
}

/* ---- the register decoder of the aligned rungs -------------------------
 * Kinds 1 and 2 (l = 16 and 32: one field per uint16 / uint32 slot) are
 * decoded eight fields to a register, in plain C over GCC/Clang vector
 * types, so every clone runs the same algorithm at its own width.  In an
 * exact-scale block (DECODE_BLOCK_RUN) the eight fields are zero-extended
 * to 64 bits; c_sig < 2^52 OR-ed into the bits of 2^52 is the double
 * 2^52 + c_sig, and subtracting 2^52 leaves c_sig exactly (+0 for 0); the
 * product with the block's scale is exact, and the sign bit is OR-ed in
 * last: the bits of the scalar exact branch, field for field. */
#if defined(__GNUC__) && !defined(__clang__)
/* the helpers below that take or return a vector are inlined by force,
 * so no vector crosses a call: gcc's ABI note about them says nothing */
#pragma GCC diagnostic ignored "-Wpsabi"
#endif
typedef double v8df __attribute__((vector_size(64)));
typedef uint64_t v8du __attribute__((vector_size(64)));
typedef uint32_t v8su __attribute__((vector_size(32)));
typedef uint16_t v8hu __attribute__((vector_size(16)));

/* The layouts whose walks take the register route: kind 1 or 2, blocks of
 * whole registers. */
#define FIELDS_IN_REGISTERS(kind, bs)                                     \
    (((kind) == 1 || (kind) == 2) && (bs) % 8 == 0)

/* Fields i .. i + 7 of a kind 1 or 2 payload, in a block of scale s. */
static inline __attribute__((always_inline)) v8df
decode8(const uint8_t *payload, int32_t kind, int64_t i, double s)
{
    int64_t l = kind == 1 ? 16 : 32;
    v8du q;
    if (kind == 1) {
        v8hu f;  /* widened in two steps: gcc 12 makes one step scalar */
        memcpy(&f, (const uint16_t *)payload + i, sizeof f);
        q = __builtin_convertvector(__builtin_convertvector(f, v8su), v8du);
    } else {
        v8su f;
        memcpy(&f, (const uint32_t *)payload + i, sizeof f);
        q = __builtin_convertvector(f, v8du);
    }
    v8du biased = (q & ((1ULL << (l - 1)) - 1)) | 0x4330000000000000ULL;
    v8df mag = ((v8df)biased - 0x1p52) * s;
    return (v8df)((v8du)mag | (q << (64 - l) & 0x8000000000000000ULL));
}

static inline __attribute__((always_inline)) v8df load8(const double *p)
{
    v8df v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline __attribute__((always_inline)) void store8(double *p, v8df v)
{
    memcpy(p, &v, sizeof v);
}

/* decode_range over a kind 1 or 2 payload: an exact-scale block eight
 * fields at a time, its tail and every other block by DECODE_BLOCK_RUN. */
static inline __attribute__((always_inline)) void
decode_fields(const uint8_t *payload, int32_t kind, const int32_t *exponents,
              int64_t i0, int64_t i1, int64_t bs, double *out)
{
    int64_t l = kind == 1 ? 16 : 32;
    uint64_t sig_mask = (1ULL << (l - 1)) - 1ULL;
    for (int64_t b = i0 / bs; b * bs < i1; b++) {
        int64_t lo = b * bs < i0 ? i0 : b * bs;
        int64_t hi = (b + 1) * bs < i1 ? (b + 1) * bs : i1;
        int64_t e_max = exponents[b];
        double scale = u2d(exact_scale(e_max, l));
        int exact = scale != 0.0;
        if (exact)
            for (; lo + 8 <= hi; lo += 8)
                store8(out + (lo - i0), decode8(payload, kind, lo, scale));
        int64_t cnt = hi - lo;
        double *restrict o = out + (lo - i0);
        if (kind == 1) {
            const uint16_t *p = (const uint16_t *)payload + lo;
            DECODE_BLOCK_RUN(p[k], int32_t)
        } else {
            const uint32_t *p = (const uint32_t *)payload + lo;
            DECODE_BLOCK_RUN(p[k], int32_t)
        }
    }
}

/* Decode values [i0, i1) of one container into out[0 .. i1 - i0): one
 * exponent read per block, one slot-width dispatch per call (kinds 1 and
 * 2) or per block. */
CLONED
static void decode_range(const uint8_t *payload, int32_t kind,
                         int64_t nwords, const int32_t *exponents,
                         int64_t i0, int64_t i1, int64_t bs, int64_t l,
                         int64_t wpb, double *out)
{
    if (kind == 1) {
        decode_fields(payload, 1, exponents, i0, i1, bs, out);
        return;
    }
    if (kind == 2) {
        decode_fields(payload, 2, exponents, i0, i1, bs, out);
        return;
    }
    uint64_t sig_mask = (1ULL << (l - 1)) - 1ULL;
    for (int64_t b = i0 / bs; b * bs < i1; b++) {
        int64_t lo = b * bs < i0 ? i0 : b * bs;
        int64_t hi = (b + 1) * bs < i1 ? (b + 1) * bs : i1;
        int64_t cnt = hi - lo;
        int64_t e_max = exponents[b];
        double scale = u2d(exact_scale(e_max, l));
        int exact = scale != 0.0;
        double *restrict o = out + (lo - i0);
        switch (kind) {
        case 0: {
            const uint8_t *p = payload + lo;
            DECODE_BLOCK_RUN(p[k], int32_t)
            break;
        }
        case 3: {
            const uint64_t *p = (const uint64_t *)payload + lo;
            DECODE_BLOCK_RUN(p[k], int64_t)
            break;
        }
        default: {
            const uint32_t *words = (const uint32_t *)payload;
            int64_t bit0 = b * wpb * 32 + (lo - b * bs) * l;
            if (LOADS_FIT(nwords, bit0 + (cnt - 1) * l, l)) {
                DECODE_BLOCK_RUN(load_field(words, bit0 + k * l, l), int64_t)
            } else {
                DECODE_BLOCK_RUN(read_packed(words, nwords, bit0 + k * l, l),
                                 int64_t)
            }
            break;
        }
        }
    }
}

/* Decode rows v_0[i0:i1] ... v_{j-1}[i0:i1] of j same-layout containers
 * into a row-major (j, ld) buffer: the fused kernels' scratch tile. */
void frsz2_decode_tile(const uint8_t *const *payloads,
                       const int32_t *const *exponents, int64_t j,
                       int32_t kind, int64_t nwords, int64_t bs, int64_t l,
                       int64_t wpb, int64_t i0, int64_t i1, double *out,
                       int64_t ld)
{
    for (int64_t r = 0; r < j; r++)
        decode_range(payloads[r], kind, nwords, exponents[r], i0, i1, bs, l,
                     wpb, out + r * ld);
}

/* Decode arbitrary value positions of one container of n values.
 * Returns 0, or i + 1 for the first idx[i] outside [0, n) — nothing is
 * read through it. */
int64_t frsz2_decode_gather(const uint8_t *payload, int32_t kind,
                            int64_t nwords, const int32_t *exponents,
                            const int64_t *idx, int64_t m, int64_t n,
                            int64_t bs, int64_t l, int64_t wpb, double *out)
{
    for (int64_t i = 0; i < m; i++) {
        int64_t j = idx[i];
        if (j < 0 || j >= n)
            return i + 1;
        uint64_t f = read_slot(payload, kind, nwords, j, bs, l, wpb);
        out[i] = decode_field(f, exponents[j / bs], l);
    }
    return 0;
}

/* ---- one pool, three clients -------------------------------------------
 * A split call cuts its work into units — the tiles of a fused walk's grid,
 * runs of pieces of the axpy, runs of rows of an SpMV, one per thread of a
 * triangular sweep (whose own claims are below) — which the caller
 * and the helper threads claim off one atomic word: the caller from the
 * last unit down, the helpers from the first up.  A unit writes only what
 * is its own (its rows of y, its elements of w, its tile's partials), so
 * no bit depends on which thread ran it or when; a reduction across units
 * is the caller's, in unit order, after the join.  A call runs alone — the
 * same units, last first — when it is small (POOL_MIN_WORK), when its
 * buffer has one slice, or when another thread of the process is inside a
 * split call (pool.run is taken).
 *
 * The helpers, pool.size - 1 of them, start with the first call that
 * splits, in the process that makes it (pool.owner); a forked child has
 * none of them and starts its own (pool_forked resets the pool in the
 * child, whatever its parent was doing).  Between calls they sleep on
 * pool.wake — no spin, so an idle pool takes no core from a sibling
 * process — with every signal blocked, and they allocate nothing: their
 * work slices are in the caller's buffer.  Unloading the library stops
 * and joins them. */
#define POOL_MAX 64

/* Values a walk (rows x n) or an SpMV (stored entries) must have before it
 * is split — below it, waking a helper costs what the second core saves;
 * elements per piece of the axpy; tiles whose partials a
 * walk holds before adding them up (a round: the partials are a bound
 * independent of n).  Measured: docs/ARCHITECTURE.md, "One pool, three
 * clients". */
#define POOL_MIN_WORK 65536
#define FUSED_PIECE 256
#define FUSED_ROUND 64
const int64_t pool_min_work = POOL_MIN_WORK;
const int64_t fused_piece = FUSED_PIECE;
const int64_t fused_round = FUSED_ROUND;

typedef void (*pool_task)(const void *job, int64_t unit, int64_t me);

static struct {
    pthread_mutex_t lock;  /* guards the open call and the helpers' wait */
    pthread_mutex_t run;   /* held by the call that is split, and to resize */
    pthread_cond_t wake;   /* helpers wait here for a call to open */
    pthread_cond_t idle;   /* the caller waits here for its helpers */
    pid_t owner;           /* the process the helpers run in; 0: none */
    int64_t size;          /* threads of a split call, the caller included */
    int64_t helpers;       /* helper threads running, numbered 1..helpers */
    int64_t busy;          /* helpers inside the open call */
    int open, stop;
    uint64_t call;         /* the last call opened */
    pool_task task;
    const void *job;
    int64_t units, threads;
    uint64_t claims;       /* units claimed: helpers' (low word), caller's */
    pthread_t tid[POOL_MAX];
} pool = {PTHREAD_MUTEX_INITIALIZER, PTHREAD_MUTEX_INITIALIZER,
          PTHREAD_COND_INITIALIZER, PTHREAD_COND_INITIALIZER, 0, 1};

/* The next unit for thread me (0: the caller), or -1 when none is left. */
static int64_t pool_claim(int64_t units, int64_t me)
{
    uint64_t got = __atomic_fetch_add(&pool.claims, me ? 1 : 1ULL << 32,
                                      __ATOMIC_RELAXED);
    int64_t up = (int64_t)(got & 0xFFFFFFFFu), down = (int64_t)(got >> 32);
    if (up + down >= units)
        return -1;
    return me ? up : units - 1 - down;
}

static void *pool_helper(void *arg)
{
    int64_t me = (int64_t)(intptr_t)arg;
    uint64_t served = 0;
    pthread_mutex_lock(&pool.lock);
    for (;;) {
        while (!pool.stop && (!pool.open || pool.call == served))
            pthread_cond_wait(&pool.wake, &pool.lock);
        if (pool.stop)
            break;
        served = pool.call;
        if (me >= pool.threads)
            continue;
        pool_task task = pool.task;
        const void *job = pool.job;
        int64_t units = pool.units;
        pool.busy++;
        pthread_mutex_unlock(&pool.lock);
        for (int64_t u; (u = pool_claim(units, me)) >= 0;)
            task(job, u, me);
        pthread_mutex_lock(&pool.lock);
        if (--pool.busy == 0 && !pool.open)
            pthread_cond_signal(&pool.idle);
    }
    pthread_mutex_unlock(&pool.lock);
    return NULL;
}

/* Under pool.run: join the helpers this process started. */
static void pool_stop(void)
{
    if (pool.owner != getpid())
        return;
    pthread_mutex_lock(&pool.lock);
    pool.stop = 1;
    pthread_cond_broadcast(&pool.wake);
    pthread_mutex_unlock(&pool.lock);
    for (int64_t h = 1; h <= pool.helpers; h++)
        pthread_join(pool.tid[h], NULL);
    pool.stop = 0;
    pool.helpers = 0;
}

/* Under pool.run: the process's pool.size - 1 helpers, started as needed;
 * whether any runs. */
static int pool_start(void)
{
    int64_t want = __atomic_load_n(&pool.size, __ATOMIC_RELAXED) - 1;
    if (pool.owner != getpid()) {
        pool.owner = getpid();
        pool.helpers = 0;
    }
    if (pool.helpers > want)
        pool_stop();
    if (pool.helpers < want) {
        sigset_t all, old;
        sigfillset(&all);
        pthread_sigmask(SIG_SETMASK, &all, &old);
        while (pool.helpers < want
               && pthread_create(&pool.tid[pool.helpers + 1], NULL,
                                 pool_helper,
                                 (void *)(intptr_t)(pool.helpers + 1)) == 0)
            pool.helpers++;
        pthread_sigmask(SIG_SETMASK, &old, NULL);
    }
    return pool.helpers > 0;
}

/* task(job, u, me) for every unit u < units, on up to threads threads
 * when the call's work is worth it. */
static void pool_split(pool_task task, const void *job, int64_t units,
                       int64_t threads, int64_t work)
{
    int64_t size = __atomic_load_n(&pool.size, __ATOMIC_RELAXED);
    if (work < POOL_MIN_WORK)
        threads = 1;
    if (threads > size)
        threads = size;
    if (threads > units)
        threads = units;
    if (threads > 1 && pthread_mutex_trylock(&pool.run) == 0) {
        if (pool_start()) {
            pthread_mutex_lock(&pool.lock);
            pool.task = task;
            pool.job = job;
            pool.units = units;
            pool.threads = threads;
            __atomic_store_n(&pool.claims, 0, __ATOMIC_RELAXED);
            pool.call++;
            pool.open = 1;
            pthread_cond_broadcast(&pool.wake);
            pthread_mutex_unlock(&pool.lock);
            for (int64_t u; (u = pool_claim(units, 0)) >= 0;)
                task(job, u, 0);
            pthread_mutex_lock(&pool.lock);
            pool.open = 0;
            while (pool.busy)
                pthread_cond_wait(&pool.idle, &pool.lock);
            pthread_mutex_unlock(&pool.lock);
            pthread_mutex_unlock(&pool.run);
            return;
        }
        pthread_mutex_unlock(&pool.run);
    }
    for (int64_t u = units - 1; u >= 0; u--)
        task(job, u, 0);
}

/* Threads a split call may use from now on (1 .. POOL_MAX, returned); a
 * smaller pool lets its extra helpers go at once. */
int64_t engine_set_threads(int64_t threads)
{
    threads = threads < 1 ? 1 : threads > POOL_MAX ? POOL_MAX : threads;
    pthread_mutex_lock(&pool.run);
    if (pool.helpers > threads - 1)
        pool_stop();
    __atomic_store_n(&pool.size, threads, __ATOMIC_RELAXED);
    pthread_mutex_unlock(&pool.run);
    return threads;
}

/* In a forked child: the parent's helpers are not here, and its locks may
 * have been held by a thread that is not here either. */
static void pool_forked(void)
{
    pthread_mutex_init(&pool.lock, NULL);
    pthread_mutex_init(&pool.run, NULL);
    pthread_cond_init(&pool.wake, NULL);
    pthread_cond_init(&pool.idle, NULL);
    pool.owner = 0;
    pool.helpers = pool.busy = 0;
    pool.open = pool.stop = 0;
}

__attribute__((constructor))
static void pool_load(void)
{
    pthread_atfork(NULL, NULL, pool_forked);
}

__attribute__((destructor))
static void pool_unload(void)
{
    pthread_mutex_lock(&pool.run);
    pool_stop();
    pthread_mutex_unlock(&pool.run);
}

/* ---- value sources -----------------------------------------------------
 * A source is j rows of n values: float64 rows read where they are stored
 * (row r = dense + r * ld: the columns of the basis mirror, the rows of a
 * scratch a fallback reader filled, a float64 factor) or, when dense ==
 * NULL, FRSZ2 containers of one layout, decoded one row piece at a time
 * into buf.  p prefixes the argument names, so a kernel may take two;
 * SOURCE_FIELDS(p) holds them in a struct, SOURCE_NAMES(p) passes them on. */
#define SOURCE(p)                                                         \
    const double *p##dense, int64_t p##ld,                                \
    const uint8_t *const *p##payloads,                                    \
    const int32_t *const *p##exponents, int32_t p##kind,                  \
    int64_t p##nwords, int64_t p##bs, int64_t p##l, int64_t p##wpb
#define SOURCE_FIELDS(p)                                                  \
    const double *p##dense;                                               \
    int64_t p##ld;                                                        \
    const uint8_t *const *p##payloads;                                    \
    const int32_t *const *p##exponents;                                   \
    int32_t p##kind;                                                      \
    int64_t p##nwords, p##bs, p##l, p##wpb;
#define SOURCE_NAMES(p)                                                   \
    p##dense, p##ld, p##payloads, p##exponents, p##kind, p##nwords,       \
    p##bs, p##l, p##wpb
#define SOURCE_ROW(p, r, i0, i1, buf)                                     \
    (p##dense ? p##dense + (r) * p##ld + (i0)                             \
              : (decode_range(p##payloads[r], p##kind, p##nwords,         \
                              p##exponents[r], i0, i1, p##bs, p##l,       \
                              p##wpb, buf), (const double *)(buf)))

/* ---- fused basis reductions: one source, the basis rows ---------------
 * Each walk is cut into units for the pool: the tiles of its grid (dot)
 * or runs of pieces (axpy).  A walk's arguments travel to the units in one
 * struct walk: the source (FUSED_SOURCE's nine, so FUSED_ROW reads
 * k->v_*), the operands, and the caller's work buffer — FUSED_ROUND tiles'
 * partials, then one slice of stride doubles per thread (thread me's at
 * slices + me * stride).  A walk has width one or two: with w2 set, every
 * row it reads (or decodes) once serves both operands — the dot reduces
 * it against w and w2, the axpy subtracts it from w with y and from w2
 * with y2 — and each operand gets the bits of its own walk of width one. */
#define FUSED_SOURCE SOURCE(v_)
#define FUSED_ROW(r, i0, i1, buf) SOURCE_ROW(k->v_, r, i0, i1, buf)

struct walk {
    SOURCE_FIELDS(v_)
    int64_t j, n, tile;
    int64_t round;          /* the round's first tile */
    const double *y, *y2;   /* the axpy's coefficients */
    double *w, *w2;         /* the operands; w2 == NULL: width one */
    const double *src, *src2;  /* the axpy's inputs, when not w and w2 */
    double *part, *slices;  /* a tile's partials: j per operand, w's first */
    int64_t stride;
    int32_t store;
};

#define WALK_SOURCE                                                       \
    .v_dense = v_dense, .v_ld = v_ld, .v_payloads = v_payloads,           \
    .v_exponents = v_exponents, .v_kind = v_kind, .v_nwords = v_nwords,   \
    .v_bs = v_bs, .v_l = v_l, .v_wpb = v_wpb

/* Every tile of the grid, a round at a time: the round's tiles on the
 * pool, each writing its partials, then acc[r] += them in tile order (and
 * acc2[r] += those of w2, for a walk of width two). */
static void fused_rounds(pool_task task, struct walk *k, double *acc,
                         double *acc2, int64_t threads)
{
    int64_t tiles = (k->n + k->tile - 1) / k->tile, j = k->j;
    int64_t per = k->w2 ? 2 * j : j;
    for (k->round = 0; k->round < tiles; k->round += FUSED_ROUND) {
        int64_t units = tiles - k->round;
        units = units < FUSED_ROUND ? units : FUSED_ROUND;
        pool_split(task, k, units, threads, j * k->n);
        for (int64_t t = 0; t < units; t++)
            for (int64_t r = 0; r < j; r++)
                acc[r] += k->part[t * per + r];
        if (acc2)
            for (int64_t t = 0; t < units; t++)
                for (int64_t r = 0; r < j; r++)
                    acc2[r] += k->part[t * per + j + r];
    }
}

/* The fixed tree of eight lanes. */
static inline __attribute__((always_inline)) double lanes_tree(const double *a)
{
    return ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
}

static inline __attribute__((always_inline)) double lanes_tree8(v8df a)
{
    double l[8];
    store8(l, a);
    return lanes_tree(l);
}

/* A block of a row that the register routes do not decode in registers:
 * its fields [lo, hi) decoded into buf, then each element i joined to
 * lane (i - t0) mod 8 of a (and of a2 against x2, when x2 is set), in
 * ascending order. */
static __attribute__((noinline)) void
dot_block_buffered(const uint8_t *v, int32_t kind, const int32_t *e,
                   int64_t lo, int64_t hi, int64_t t0, int64_t bs,
                   const double *x, const double *x2, double *buf, double *a,
                   double *a2)
{
    decode_range(v, kind, 0, e, lo, hi, bs, kind == 1 ? 16 : 32, 0, buf);
    for (int64_t i = lo; i < hi; i++)
        a[(i - t0) & 7] += buf[i - lo] * x[i];
    if (x2)
        for (int64_t i = lo; i < hi; i++)
            a2[(i - t0) & 7] += buf[i - lo] * x2[i];
}

/* The register route of dot_tile: rows r .. r + R - 1 (R = DOT_ROWS, or
 * half of it at width two, or fewer: the rows of one pass, whose add
 * chains run at once and share the loads of the operands) over the tile
 * [t0, t1).  A block of a row whose fields are all in the tile, starting a
 * multiple of eight from t0, and exact-scale is decoded in the registers
 * its products join; any other block of a row goes through
 * dot_block_buffered — the same lanes, in the same ascending order. */
#define DOT_ROWS 4

static inline __attribute__((always_inline)) void
dot_rows_fields(const struct walk *k, int32_t kind, int64_t r, int R,
                int64_t t0, int64_t t1, double *buf, double *p, int two)
{
    int64_t bs = k->v_bs, l = kind == 1 ? 16 : 32;
    const double *restrict x = k->w, *restrict x2 = two ? k->w2 : NULL;
    const uint8_t *const *v = k->v_payloads + r;
    const int32_t *const *e = k->v_exponents + r;
    v8df a[DOT_ROWS], a2[DOT_ROWS];
    for (int g = 0; g < R; g++)
        a[g] = a2[g] = (v8df){0.0};
    for (int64_t b0 = t0 / bs * bs; b0 < t1; b0 += bs) {
        int64_t lo = b0 < t0 ? t0 : b0, hi = b0 + bs < t1 ? b0 + bs : t1;
        int whole = lo == b0 && hi == b0 + bs && (lo - t0) % 8 == 0;
        uint64_t s[DOT_ROWS], all = whole;
        for (int g = 0; g < R; g++)
            all &= (s[g] = whole ? exact_scale(e[g][b0 / bs], l) : 0) != 0;
        if (all) {
            for (int64_t i = lo; i < hi; i += 8) {
                v8df xv = load8(x + i), x2v = two ? load8(x2 + i) : xv;
                for (int g = 0; g < R; g++) {
                    v8df d = decode8(v[g], kind, i, u2d(s[g]));
                    a[g] += d * xv;
                    if (two)
                        a2[g] += d * x2v;
                }
            }
            continue;
        }
        for (int g = 0; g < R; g++) {
            if (s[g]) {
                for (int64_t i = lo; i < hi; i += 8) {
                    v8df d = decode8(v[g], kind, i, u2d(s[g]));
                    a[g] += d * load8(x + i);
                    if (two)
                        a2[g] += d * load8(x2 + i);
                }
            } else {
                double lanes[8], lanes2[8];
                store8(lanes, a[g]);
                store8(lanes2, a2[g]);
                dot_block_buffered(v[g], kind, e[g], lo, hi, t0, bs, x, x2,
                                   buf, lanes, lanes2);
                a[g] = load8(lanes);
                a2[g] = load8(lanes2);
            }
        }
    }
    for (int g = 0; g < R; g++) {
        p[r + g] = lanes_tree8(a[g]);
        if (two)
            p[k->j + r + g] = lanes_tree8(a2[g]);
    }
}

static inline __attribute__((always_inline)) void
dot_fields(const struct walk *k, int32_t kind, int64_t t0, int64_t t1,
           double *buf, double *p, int two)
{
    int64_t r = 0;
    if (two)
        for (; r + DOT_ROWS / 2 <= k->j; r += DOT_ROWS / 2)
            dot_rows_fields(k, kind, r, DOT_ROWS / 2, t0, t1, buf, p, 1);
    else
        for (; r + DOT_ROWS <= k->j; r += DOT_ROWS)
            dot_rows_fields(k, kind, r, DOT_ROWS, t0, t1, buf, p, 0);
    for (; r < k->j; r++)
        dot_rows_fields(k, kind, r, 1, t0, t1, buf, p, two);
}

/* The float64 route of dot_tile: rows r .. r + R - 1 read in place, a
 * pass of R rows sharing the loads of the operands; each row's lanes take
 * its products in ascending order, eight at a time. */
static inline __attribute__((always_inline)) void
dot_rows_dense(const struct walk *k, int64_t r, int R, int64_t t0,
               int64_t len, const double *restrict x,
               const double *restrict x2, double *p, int two)
{
    const double *v[DOT_ROWS];
    v8df a[DOT_ROWS], a2[DOT_ROWS];
    for (int g = 0; g < R; g++) {
        v[g] = k->v_dense + (r + g) * k->v_ld + t0;
        a[g] = a2[g] = (v8df){0.0};
    }
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        v8df xv = load8(x + i), x2v = two ? load8(x2 + i) : xv;
        for (int g = 0; g < R; g++) {
            v8df vi = load8(v[g] + i);
            a[g] += vi * xv;
            if (two)
                a2[g] += vi * x2v;
        }
    }
    for (int g = 0; g < R; g++) {
        double l[8], l2[8];
        store8(l, a[g]);
        store8(l2, a2[g]);
        for (int64_t e = i, q = 0; e < len; e++, q++) {
            l[q] += v[g][e] * x[e];
            if (two)
                l2[q] += v[g][e] * x2[e];
        }
        p[r + g] = lanes_tree(l);
        if (two)
            p[k->j + r + g] = lanes_tree(l2);
    }
}

/* The partials of v_r . w (and v_r . w2) over tile t of the round, for
 * every row in order.  A partial is the written lane order: eight
 * accumulators from +0.0, element i joins lane (i - t0) mod 8 as a
 * rounded product added with a rounded sum, then the fixed tree below.
 * The eight lanes are independent, so the vectoriser may keep them in any
 * register width without moving a bit. */
static inline __attribute__((always_inline)) void
dot_tile_width(const struct walk *k, int64_t t, int64_t me, int two)
{
    int64_t t0 = (k->round + t) * k->tile, j = k->j;
    int64_t len = (t0 + k->tile < k->n ? t0 + k->tile : k->n) - t0;
    const double *restrict x = k->w + t0;
    const double *restrict x2 = two ? k->w2 + t0 : x;
    double *buf = k->slices + me * k->stride, *p = k->part + t * (1 + two) * j;
    if (k->v_dense) {
        int64_t r = 0;
        for (; r + DOT_ROWS <= j; r += DOT_ROWS)
            dot_rows_dense(k, r, DOT_ROWS, t0, len, x, x2, p, two);
        for (; r < j; r++)
            dot_rows_dense(k, r, 1, t0, len, x, x2, p, two);
        return;
    }
    if (FIELDS_IN_REGISTERS(k->v_kind, k->v_bs)) {
        if (k->v_kind == 1)
            dot_fields(k, 1, t0, t0 + len, buf, p, two);
        else
            dot_fields(k, 2, t0, t0 + len, buf, p, two);
        return;
    }
    for (int64_t r = 0; r < j; r++) {
        const double *restrict v = FUSED_ROW(r, t0, t0 + len, buf);
        v8df av = {0.0}, av2 = {0.0};
        int64_t i = 0;
        for (; i + 8 <= len; i += 8) {
            v8df vi = load8(v + i);
            av += vi * load8(x + i);
            if (two)
                av2 += vi * load8(x2 + i);
        }
        double a[8], a2[8];
        store8(a, av);
        store8(a2, av2);
        for (int q = 0; i < len; i++, q++) {
            a[q] += v[i] * x[i];
            if (two)
                a2[q] += v[i] * x2[i];
        }
        p[r] = lanes_tree(a);
        if (two)
            p[j + r] = lanes_tree(a2);
    }
}

CLONED
static void dot_tile(const void *job, int64_t t, int64_t me)
{
    const struct walk *k = job;
    if (k->w2)
        dot_tile_width(k, t, me, 1);
    else
        dot_tile_width(k, t, me, 0);
}

/* A dot walk's work buffer: the partials of a round, then per thread a
 * compressed row tile decoded into its slice — min(tile, n) doubles,
 * rounded up to a cache line. */
static struct walk dot_walk(FUSED_SOURCE, int64_t j, int64_t n, int64_t tile,
                            const double *x, const double *x2, double *work)
{
    struct walk k = {WALK_SOURCE, .j = j, .n = n, .tile = tile,
                     .w = (double *)x, .w2 = (double *)x2, .part = work,
                     .slices = work + FUSED_ROUND * j * (x2 ? 2 : 1),
                     .stride = v_dense ? 0 : ((tile < n ? tile : n) + 7) & ~7LL};
    return k;
}

/* h[r] += the tile partials of v_r . w in tile order. */
void fused_dot(FUSED_SOURCE, int64_t j, int64_t n, int64_t tile,
               const double *w, double *h, double *work, int64_t threads)
{
    struct walk k = dot_walk(SOURCE_NAMES(v_), j, n, tile, w, NULL, work);
    fused_rounds(dot_tile, &k, h, NULL, threads);
}

/* fused_dot of x into hx and of y into hy, in one walk. */
void fused_dot2(FUSED_SOURCE, int64_t j, int64_t n, int64_t tile,
                const double *x, const double *y, double *hx, double *hy,
                double *work, int64_t threads)
{
    struct walk k = dot_walk(SOURCE_NAMES(v_), j, n, tile, x, y, work);
    fused_rounds(dot_tile, &k, hx, hy, threads);
}

/* x . y: the dot of x as one row read in place with y (the lane order
 * above, tile partials added in tile order from +0.0). */
static double dense_dot(const double *x, const double *y, int64_t n,
                        int64_t tile, int64_t threads)
{
    double part[FUSED_ROUND], acc = 0.0;
    struct walk k = {.v_dense = x, .v_ld = n, .j = 1, .n = n, .tile = tile,
                     .w = (double *)y, .part = part, .slices = part};
    fused_rounds(dot_tile, &k, &acc, NULL, threads);
    return acc;
}

/* ||x||: x . x, then the correctly rounded square root. */
static double norm2_walk(const double *x, int64_t n, int64_t tile,
                         int64_t threads)
{
    return sqrt(dense_dot(x, x, n, tile, threads));
}

double fused_norm2(const double *x, int64_t n, int64_t tile, int64_t threads)
{
    return norm2_walk(x, n, tile, threads);
}

/* Per element: s = y[0] v_0[i], then s += y[r] v_r[i] for r = 1..j-1,
 * then w[i] -= s (store == 0) or w[i] = s (store != 0: combine); at width
 * two the same sum s2 with y2, and w2[i] -= s2.  Every element is
 * independent, so the walk is free: short pieces keep the partial sums
 * and the decoded row pieces close, and rows are taken four at a time so
 * a partial sum stays in a register across four of its additions — still
 * added one row after the other, in row order.
 *
 * axpy_piece leaves the sums of elements [i0, i0 + len) in s (and s2).  A
 * compressed row piece is decoded into buf + g * FUSED_PIECE, g the row's
 * place in its group of four.
 *
 * The register route (axpy_rows_fields) adds rows r .. r + R - 1 (R = 1
 * or 4; first: s starts at row r) into s over [i0, i1), block by block:
 * a whole exact-scale block of every row of the group is decoded eight
 * fields at a time into the register sums; any other block is decoded
 * into buf first. */
static inline __attribute__((always_inline)) void
axpy_rows_fields(const struct walk *k, int32_t kind, int64_t r, int R,
                 int first, int64_t i0, int64_t i1, double *restrict s,
                 double *restrict s2, double *buf, int two)
{
    int64_t bs = k->v_bs, l = kind == 1 ? 16 : 32;
    const double *y = k->y + r, *y2 = two ? k->y2 + r : y;
    const uint8_t *const *v = k->v_payloads + r;
    const int32_t *const *e = k->v_exponents + r;
    for (int64_t b0 = i0 / bs * bs; b0 < i1; b0 += bs) {
        int64_t lo = b0 < i0 ? i0 : b0, hi = b0 + bs < i1 ? b0 + bs : i1;
        uint64_t sc[4], all = lo == b0 && hi == b0 + bs;
        for (int g = 0; g < R; g++)
            all &= (sc[g] = all ? exact_scale(e[g][b0 / bs], l) : 0) != 0;
        if (all) {
            for (int64_t i = lo; i < hi; i += 8) {
                v8df d = decode8(v[0], kind, i, u2d(sc[0]));
                v8df t = first ? y[0] * d : load8(s + (i - i0)) + y[0] * d;
                v8df t2 = t;
                if (two)
                    t2 = first ? y2[0] * d : load8(s2 + (i - i0)) + y2[0] * d;
                for (int g = 1; g < R; g++) {
                    d = decode8(v[g], kind, i, u2d(sc[g]));
                    t = t + y[g] * d;
                    if (two)
                        t2 = t2 + y2[g] * d;
                }
                store8(s + (i - i0), t);
                if (two)
                    store8(s2 + (i - i0), t2);
            }
            continue;
        }
        double *row[4];
        for (int g = 0; g < R; g++) {
            row[g] = buf + g * FUSED_PIECE;
            decode_range(v[g], kind, 0, e[g], lo, hi, bs, l, 0, row[g]);
        }
        for (int64_t i = lo; i < hi; i++) {
            double t = first ? y[0] * row[0][i - lo]
                             : s[i - i0] + y[0] * row[0][i - lo];
            for (int g = 1; g < R; g++)
                t += y[g] * row[g][i - lo];
            s[i - i0] = t;
        }
        if (two)
            for (int64_t i = lo; i < hi; i++) {
                double t = first ? y2[0] * row[0][i - lo]
                                 : s2[i - i0] + y2[0] * row[0][i - lo];
                for (int g = 1; g < R; g++)
                    t += y2[g] * row[g][i - lo];
                s2[i - i0] = t;
            }
    }
}

static inline __attribute__((always_inline)) void
axpy_fields(const struct walk *k, int32_t kind, int64_t i0, int64_t len,
            double *restrict s, double *restrict s2, double *buf, int two)
{
    int64_t r = 1;
    axpy_rows_fields(k, kind, 0, 1, 1, i0, i0 + len, s, s2, buf, two);
    for (; r + 4 <= k->j; r += 4)
        axpy_rows_fields(k, kind, r, 4, 0, i0, i0 + len, s, s2, buf, two);
    for (; r < k->j; r++)
        axpy_rows_fields(k, kind, r, 1, 0, i0, i0 + len, s, s2, buf, two);
}

static inline __attribute__((always_inline)) void
axpy_piece(const struct walk *k, int64_t i0, int64_t len, double *restrict s,
           double *restrict s2, double *buf, int two)
{
    if (!k->v_dense && FIELDS_IN_REGISTERS(k->v_kind, k->v_bs)) {
        if (k->v_kind == 1)
            axpy_fields(k, 1, i0, len, s, s2, buf, two);
        else
            axpy_fields(k, 2, i0, len, s, s2, buf, two);
        return;
    }
#define PIECE_ROW(r, g) FUSED_ROW(r, i0, i0 + len, buf + (g) * FUSED_PIECE)
    const double *y = k->y, *y2 = two ? k->y2 : k->y;
    const double *restrict a = PIECE_ROW(0, 0);
    for (int64_t i = 0; i < len; i++) {
        s[i] = y[0] * a[i];
        if (two)
            s2[i] = y2[0] * a[i];
    }
    int64_t r = 1;
    for (; r + 4 <= k->j; r += 4) {
        a = PIECE_ROW(r, 0);
        const double *restrict b = PIECE_ROW(r + 1, 1);
        const double *restrict c = PIECE_ROW(r + 2, 2);
        const double *restrict d = PIECE_ROW(r + 3, 3);
        for (int64_t i = 0; i < len; i++) {
            double t = s[i] + y[r] * a[i];
            t += y[r + 1] * b[i];
            t += y[r + 2] * c[i];
            s[i] = t + y[r + 3] * d[i];
        }
        if (two)
            for (int64_t i = 0; i < len; i++) {
                double t = s2[i] + y2[r] * a[i];
                t += y2[r + 1] * b[i];
                t += y2[r + 2] * c[i];
                s2[i] = t + y2[r + 3] * d[i];
            }
    }
    for (; r < k->j; r++) {
        a = PIECE_ROW(r, 0);
        for (int64_t i = 0; i < len; i++) {
            s[i] += y[r] * a[i];
            if (two)
                s2[i] += y2[r] * a[i];
        }
    }
#undef PIECE_ROW
}

/* The axpy's unit: AXPY_RUN elements, piece by piece. */
#define AXPY_RUN (8 * FUSED_PIECE)

static inline __attribute__((always_inline)) void
axpy_run_width(const struct walk *k, int64_t q, int two)
{
    double s[FUSED_PIECE], s2[FUSED_PIECE], buf[4 * FUSED_PIECE];
    int64_t end = (q + 1) * AXPY_RUN < k->n ? (q + 1) * AXPY_RUN : k->n;
    for (int64_t i0 = q * AXPY_RUN; i0 < end; i0 += FUSED_PIECE) {
        int64_t len = (i0 + FUSED_PIECE < end ? i0 + FUSED_PIECE : end) - i0;
        axpy_piece(k, i0, len, s, s2, buf, two);
        double *restrict o = k->w + i0;
        if (k->store)
            for (int64_t i = 0; i < len; i++)
                o[i] = s[i];
        else if (k->src)
            for (int64_t i = 0; i < len; i++)
                o[i] = k->src[i0 + i] - s[i];
        else
            for (int64_t i = 0; i < len; i++)
                o[i] -= s[i];
        if (two) {
            double *restrict o2 = k->w2 + i0;
            if (k->src2)
                for (int64_t i = 0; i < len; i++)
                    o2[i] = k->src2[i0 + i] - s2[i];
            else
                for (int64_t i = 0; i < len; i++)
                    o2[i] -= s2[i];
        }
    }
}

CLONED
static void axpy_run(const void *job, int64_t q, int64_t me)
{
    const struct walk *k = job;
    (void)me;
    if (k->w2)
        axpy_run_width(k, q, 1);
    else
        axpy_run_width(k, q, 0);
}

static void axpy_walk(struct walk *k)
{
    pool_split(axpy_run, k, (k->n + AXPY_RUN - 1) / AXPY_RUN, POOL_MAX,
               k->j * k->n);
}

void fused_axpy(FUSED_SOURCE, int64_t j, int64_t n, const double *y,
                double *w, int32_t store)
{
    struct walk k = {WALK_SOURCE, .j = j, .n = n, .y = y, .w = w,
                     .store = store};
    axpy_walk(&k);
}

/* fused_axpy of x with a and of y with b, in one walk. */
void fused_axpy2(FUSED_SOURCE, int64_t j, int64_t n, const double *a,
                 double *x, const double *b, double *y)
{
    struct walk k = {WALK_SOURCE, .j = j, .n = n, .y = a, .y2 = b, .w = x,
                     .w2 = y};
    axpy_walk(&k);
}

/* ---- one Arnoldi step: DCGS2, its norms, the tests and Givens ------------
 * A step is two calls, in the order of its Python body
 * (repro.fused.kernels.step_rows, then step_column), around the write of
 * the vector it finishes into slot k.  fused_step, over the k stored rows
 * V: omega = ||w_in|| (out[5]); the two walks of width two, a = V^T t
 * and b = V^T w_in (fused_dot2), then q = t - V a and w = w_in - V b
 * (fused_axpy2); rho = ||q||, q /= rho.  The outcome: non-finite (rho, a
 * or b), else loss of orthogonality (rho < eta: the tentative vector t
 * had lost most of its length to the stored span).  With the
 * least-squares state (state != NULL: cs, sn, g, R and H of an m-column
 * system whose column k - 1 is tentative) and a finite outcome: column
 * k - 1 becomes final, H[:k, k-1] += sigma a and H[k, k-1] = sigma rho
 * (sigma = H[k, k-1], the tentative scale of t; at k == 0 the right-hand
 * side, g[0] *= rho), and is absorbed: the rotations so far applied to
 * it, the new rotation by libm's hypot, the right-hand side rotated, the
 * residual it leaves in out[2]; a final subdiagonal that is zero or below
 * eta eps times the column's norm (its squares summed from +0.0 in row
 * order, then sqrt; not when that norm overflows) is a breakdown of
 * column k - 1, found by its vector's second pass, and replaces the loss.
 * out[0] = rho, out[3] = nanoseconds in the basis walks; returns the
 * flags.  With w_in == NULL the step closes
 * a cycle: walks of width one over t alone, and w, b untouched.
 * fused_column, once q is stored, opens column k from what was stored.
 * The values of STEP_* are those of repro.fused.kernels. */
#define STEP_NONFINITE 2
#define STEP_BREAKDOWN 4
#define STEP_LOSS 8

static double now_ns(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)t.tv_sec * 1e9 + (double)t.tv_nsec;
}

/* The rotations 0 .. c - 1 of cs, sn applied to column c of an
 * m-column R, held in col (col[i * m]) and h_next below it; leaves the new
 * rotation in *co, *si and returns the new diagonal. */
static double givens_rotate(const double *cs, const double *sn, double *col,
                            int64_t m, int64_t c, double h_next, double *co,
                            double *si)
{
    double lo = col[0];
    for (int64_t i = 0; i < c; i++) {
        double hi = col[(i + 1) * m];
        col[i * m] = cs[i] * lo + sn[i] * hi;
        lo = -sn[i] * lo + cs[i] * hi;
    }
    double r = hypot(lo, h_next);
    *co = 1.0;
    *si = 0.0;
    if (r != 0.0) {
        *co = lo / r;
        *si = h_next / r;
    }
    return r;
}

int64_t fused_step(FUSED_SOURCE, int64_t k, int64_t n, int64_t tile,
                   const double *t, const double *w_in, double eta,
                   double *state, int64_t m, double *q, double *w, double *a,
                   double *b, double *out, double *work, int64_t threads)
{
    int close = w_in == NULL;
    double walked = 0.0;
    for (int64_t r = 0; r < k; r++)
        a[r] = 0.0;
    out[5] = 0.0;
    if (!close) {
        out[5] = norm2_walk(w_in, n, tile, threads);
        for (int64_t r = 0; r < k; r++)
            b[r] = 0.0;
    }
    if (k) {  /* the axpy writes t - V a into q and w_in - V b into w */
        double started = now_ns();
        struct walk d = dot_walk(SOURCE_NAMES(v_), k, n, tile, t,
                                 close ? NULL : w_in, work);
        fused_rounds(dot_tile, &d, a, close ? NULL : b, threads);
        struct walk x = {WALK_SOURCE, .j = k, .n = n, .y = a, .w = q,
                         .src = t};
        if (!close) {
            x.y2 = b;
            x.w2 = w;
            x.src2 = w_in;
        }
        axpy_walk(&x);
        walked = now_ns() - started;
    } else {
        memcpy(q, t, (size_t)n * sizeof *q);
        if (!close)
            memcpy(w, w_in, (size_t)n * sizeof *w);
    }
    double rho = norm2_walk(q, n, tile, threads);
    for (int64_t i = 0; i < n; i++)
        q[i] /= rho;
    int finite = isfinite(rho);
    for (int64_t r = 0; r < k && finite; r++)
        finite = isfinite(a[r]) && (close || isfinite(b[r]));
    int64_t flags = !finite ? STEP_NONFINITE : rho < eta ? STEP_LOSS : 0;
    out[0] = rho;
    out[2] = 0.0;
    out[3] = walked;
    if (state && finite) {
        double *cs = state, *sn = state + m, *g = state + 2 * m;
        double *R = state + 3 * m + 1, *H = R + (m + 1) * m;
        if (k) {
            double *h = H + (k - 1), sigma = h[k * m], co, si;
            for (int64_t i = 0; i < k; i++)
                h[i * m] = h[i * m] + sigma * a[i];
            h[k * m] = sigma * rho;
            double sq = 0.0, hk = h[k * m];
            for (int64_t i = 0; i <= k; i++)
                sq += h[i * m] * h[i * m];
            double norm = sqrt(sq);
            if (hk == 0.0 || (isfinite(norm) && hk < eta * DBL_EPSILON * norm))
                flags = STEP_BREAKDOWN;  /* the breakdown of column k - 1 */
            double *col = R + (k - 1);  /* R[i][k - 1]: col[i * m] */
            for (int64_t i = 0; i <= k; i++)
                col[i * m] = h[i * m];
            double r = givens_rotate(cs, sn, col, m, k - 1, h[k * m], &co,
                                     &si);
            cs[k - 1] = co;
            sn[k - 1] = si;
            col[(k - 1) * m] = r;
            col[k * m] = 0.0;
            double gk = g[k - 1];
            g[k - 1] = co * gk;
            g[k] = -si * gk;
            out[2] = fabs(-si * gk);
        } else {
            g[0] = g[0] * rho;
        }
    }
    return flags;
}

/* w -= c v, and ||w|| of the result in the lane order of norm2_walk: per
 * tile, element i joins lane (i - t0) mod 8, the fixed tree, the tile
 * partials added in tile order from +0.0 — read while w is at hand. */
CLONED
static double axpy_norm(double *w, const double *v, double c, int64_t n,
                        int64_t tile)
{
    double acc = 0.0;
    v8df cv = {c, c, c, c, c, c, c, c};
    for (int64_t t0 = 0; t0 < n; t0 += tile) {
        int64_t len = (t0 + tile < n ? t0 + tile : n) - t0, i = 0;
        double *restrict x = w + t0;
        const double *restrict y = v + t0;
        v8df a = {0.0};
        for (; i + 8 <= len; i += 8) {
            v8df xi = load8(x + i) - cv * load8(y + i);
            store8(x + i, xi);
            a += xi * xi;
        }
        double lanes[8];
        store8(lanes, a);
        for (int q = 0; i < len; i++, q++) {
            x[i] -= c * y[i];
            lanes[q] += x[i] * x[i];
        }
        acc += lanes_tree(lanes);
    }
    return sqrt(acc);
}

/* The second half of a step, once q is stored in slot k — row r of this
 * source holds what was stored, read in place or decoded into buf (the
 * Python body: step_column): c = v_r . w_in (the lane order of the norm),
 * w -= c v_r and nu = ||w|| in one pass (axpy_norm); the outcome —
 * non-finite (c, nu), else breakdown (nu == 0 or < eta eps omega, omega =
 * out[5], the first half's ||w_in||); with the state, column k opened:
 * (b, c) — less H a (p_i = sum over l >= i - 1 of H[i, l] a[l], from +0.0
 * in ascending l) and divided by rho = out[0] unless flexible — with
 * H[k + 1, k] = nu (/ rho unless flexible), and the residual it would
 * leave read off a rotated copy into out[2]; then, unless a flag, w /= nu,
 * the next tentative vector.  out[1] = H[k + 1, k]; returns the flags. */
int64_t fused_column(FUSED_SOURCE, int64_t r, int64_t n, int64_t tile,
                     double *buf, double *w, const double *w_in, int64_t k,
                     double eta,
                     int32_t flexible, double *state, int64_t m,
                     const double *a, double *b, double *out, int64_t threads)
{
    const double *v = SOURCE_ROW(v_, r, 0, n, buf);
    double rho = out[0];
    double c = b[k] = dense_dot(v, w_in, n, tile, threads);
    double nu = axpy_norm(w, v, c, n, tile);
    int64_t flags = 0;
    if (!(isfinite(c) && isfinite(nu)))
        flags = STEP_NONFINITE;
    else if (nu == 0.0 || nu < eta * DBL_EPSILON * out[5])
        flags = STEP_BREAKDOWN;
    double sigma_new = flexible ? nu : nu / rho;
    out[1] = sigma_new;
    if (state && !(flags & STEP_NONFINITE)) {
        double *cs = state, *sn = state + m, *g = state + 2 * m;
        double *H = state + 3 * m + 1 + (m + 1) * m, *h = H + k;
        for (int64_t i = 0; i <= k; i++) {
            double x = b[i];
            if (!flexible) {
                double p = 0.0;
                for (int64_t l = i ? i - 1 : 0; l < k; l++)
                    p += H[i * m + l] * a[l];
                x = (x - p) / rho;
            }
            h[i * m] = x;
        }
        h[(k + 1) * m] = sigma_new;
        double lo = h[0];
        for (int64_t i = 0; i < k; i++)
            lo = -sn[i] * lo + cs[i] * h[(i + 1) * m];
        double rr = hypot(lo, sigma_new);
        out[2] = fabs(-(rr != 0.0 ? sigma_new / rr : 0.0) * g[k]);
    }
    if (!flags)
        for (int64_t i = 0; i < n; i++)
            w[i] /= nu;
    return flags;
}

/* ---- SpMV: runs of POOL_ROWS rows ----------------------------------------
 * A unit is a run of rows; each row is summed by one thread, in entry
 * order, so a row's bits do not depend on the split. */
#define POOL_ROWS 1024

struct spmv {
    const int64_t *rows, *cols;
    const double *vals, *x;
    double *y;
    int64_t width, m, nnz;
};

static void spmv_split(pool_task task, const struct spmv *a, int64_t work)
{
    pool_split(task, a, (a->m + POOL_ROWS - 1) / POOL_ROWS, POOL_MAX, work);
}

/* The first of the entries, ordered by row, whose row is >= r. */
static int64_t first_entry(const int64_t *rows, int64_t nnz, int64_t r)
{
    int64_t lo = 0, hi = nnz;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (rows[mid] < r)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

static void csr_rows(const void *job, int64_t q, int64_t me)
{
    const struct spmv *a = job;
    int64_t r0 = q * POOL_ROWS, r1 = r0 + POOL_ROWS < a->m ? r0 + POOL_ROWS : a->m;
    int64_t e1 = first_entry(a->rows, a->nnz, r1);
    for (int64_t r = r0; r < r1; r++)
        a->y[r] = 0.0;
    for (int64_t i = first_entry(a->rows, a->nnz, r0); i < e1; i++)
        a->y[a->rows[i]] += a->vals[i] * a->x[a->cols[i]];
}

/* y = A @ x, CSR with an expanded per-entry row array, ordered by row (a
 * CSRMatrix's): entries accumulate in stored order, exactly like
 * np.bincount. */
void csr_matvec(const int64_t *rows, const int64_t *cols,
                const double *data, int64_t nnz, const double *x,
                double *y, int64_t m)
{
    struct spmv a = {rows, cols, data, x, y, 0, m, nnz};
    spmv_split(csr_rows, &a, nnz);
}

static void ell_rows(const void *job, int64_t q, int64_t me)
{
    const struct spmv *a = job;
    int64_t r0 = q * POOL_ROWS, r1 = r0 + POOL_ROWS < a->m ? r0 + POOL_ROWS : a->m;
    const double *x = a->x;
    double *restrict y = a->y;
    if (a->width == 0) {
        for (int64_t r = r0; r < r1; r++)
            y[r] = 0.0;
        return;
    }
    for (int64_t r = r0; r < r1; r++)
        y[r] = a->vals[r] * x[a->cols[r]];
    for (int64_t s = 1; s < a->width; s++) {
        const int64_t *c = a->cols + s * a->m;
        const double *v = a->vals + s * a->m;
        for (int64_t r = r0; r < r1; r++)
            y[r] += v[r] * x[c[r]];
    }
}

/* y = A @ x, ELL transposed (width, m) layout: per-row accumulation in
 * slot order, matching the numpy slot-wise/reduce kernels. */
void ell_matvec(const int64_t *cols_t, const double *vals_t, int64_t width,
                int64_t m, const double *x, double *y)
{
    struct spmv a = {NULL, cols_t, vals_t, x, y, width, m, 0};
    spmv_split(ell_rows, &a, width * m);
}

/* ILU(0) numeric factorisation, in place on lu: the IKJ loop of
 * ilu0_factor_numpy operation for operation (a rounded quotient, then a
 * rounded product and a rounded difference per update; a scatter
 * workspace pos, all -1 on entry and on exit).  Rows are column-sorted.
 * Returns -1, or the first row whose pivot is missing or exactly zero. */
int64_t prec_ilu0_factor(const int64_t *indptr, const int64_t *cols,
                         double *lu, int64_t n, int64_t *pos,
                         int64_t *diag_pos)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t s = indptr[i], e = indptr[i + 1];
        for (int64_t k = s; k < e; k++)
            pos[cols[k]] = k;
        for (int64_t kk = s; kk < e; kk++) {
            int64_t j = cols[kk];
            if (j >= i)
                break;
            int64_t dp = diag_pos[j];
            double f = lu[kk] / lu[dp];
            lu[kk] = f;
            for (int64_t t = dp + 1; t < indptr[j + 1]; t++) {
                int64_t p = pos[cols[t]];
                if (p >= 0)
                    lu[p] = lu[p] - f * lu[t];
            }
        }
        int64_t dpi = -1;
        for (int64_t k = s; k < e; k++) {
            if (dpi < 0 && cols[k] == i)
                dpi = k;
            pos[cols[k]] = -1;
        }
        if (dpi < 0 || lu[dpi] == 0.0)
            return i;
        diag_pos[i] = dpi;
    }
    return -1;
}

/* ---- chunk-wavefront triangular sweeps: the pool's third client -------
 * The result of a sweep is defined by the natural-order recurrence of
 * lower_unit_trisolve_numpy / upper_trisolve_numpy; the order rows are
 * visited in is free wherever they do not depend on each other.  Rows are
 * cut into chunks of SWEEP_ROWS consecutive rows; a chunk's level is 0
 * when its rows reference no other chunk, else 1 + the highest level of
 * the chunks they reference.  Chunks of one level are independent, so up
 * to SWEEP_CHUNKS of them — a group, which never crosses a level — are
 * walked in lock-step (row q of each, then row q + 1): their recurrences
 * overlap in the pipeline where one chunk alone waits a multiply, a
 * subtraction and a divide for every row.  Rows of a chunk stay in order
 * and every row keeps its entry order, so no bit depends on the geometry;
 * both constants are picked by measurement (docs/PRECONDITIONING.md).
 *
 * A sweep is one split call of threads units; a unit only names the
 * thread's slice of the work buffer.  Every thread takes the next group
 * off one forward counter (next) and waits, before it runs the group,
 * until done — the chunks finished, added with a release after each
 * group — reaches need[g], the number of chunks in the levels below the
 * group's.  Claims in level order rule out a deadlock, and the count
 * proves the lower levels final (the module docstring, "Threads", has
 * both proofs).  A wait spins SWEEP_SPINS times, then yields the CPU, so
 * a peer that shares it runs.  Alone (small, one thread, or the pool
 * held) the same loop finds every wait satisfied. */
#define SWEEP_ROWS 256
#define SWEEP_CHUNKS 4
#define SWEEP_SPINS 1024
const int64_t prec_sweep_rows = SWEEP_ROWS;
const int64_t prec_sweep_chunks = SWEEP_CHUNKS;

/* level[c] of every chunk, forward over a strictly-lower pattern or
 * backward over a strictly-upper one (level: zeros on entry).  Returns
 * -1, or the first visited row holding an entry that is not strictly on
 * its side of the diagonal (which also bounds every index by n). */
int64_t prec_chunk_levels(const int64_t *indptr, const int32_t *indices,
                          int64_t n, int32_t upper, int64_t *level)
{
    int64_t nc = (n + SWEEP_ROWS - 1) / SWEEP_ROWS;
    for (int64_t step = 0; step < nc; step++) {
        int64_t c = upper ? nc - 1 - step : step;
        int64_t lo = c * SWEEP_ROWS;
        int64_t hi = lo + SWEEP_ROWS < n ? lo + SWEEP_ROWS : n;
        int64_t lev = 0;
        for (int64_t i = lo; i < hi; i++)
            for (int64_t k = indptr[i]; k < indptr[i + 1]; k++) {
                int64_t j = indices[k];
                if (upper ? (j <= i || j >= n) : (j >= i || j < 0))
                    return i;
                if (j < lo || j >= hi) {
                    int64_t dep = level[j / SWEEP_ROWS] + 1;
                    if (dep > lev)
                        lev = dep;
                }
            }
        level[c] = lev;
    }
    return -1;
}

/* One sweep's arguments, shared by its threads: the pattern, the values
 * (v_) and the upper sweep's diagonal (d_), the groups — group g is the
 * chunks order[group[g] .. group[g + 1]) and waits for need[g] finished
 * chunks — the vectors, the work buffer (one slice of SWEEP_SLICE(stride)
 * doubles per thread, stride: the most values any chunk has) and the two
 * counters, each on its own cache line. */
#define SWEEP_SLICE(stride) (SWEEP_CHUNKS * ((stride) + SWEEP_ROWS))

struct sweep {
    const int64_t *indptr;
    const int32_t *indices;
    SOURCE_FIELDS(v_)
    SOURCE_FIELDS(d_)
    const int64_t *order, *group, *need;
    int64_t groups, n, stride;
    const double *b;
    double *y, *work;
    int64_t next __attribute__((aligned(64)));   /* groups claimed */
    int64_t done __attribute__((aligned(64)));   /* chunks finished */
};

/* Group g's rows, in lock-step, with its values read where they are
 * stored or decoded into buf (the diagonal's after SWEEP_CHUNKS value
 * slices, SWEEP_ROWS doubles a chunk). */
static inline __attribute__((always_inline)) void
sweep_group(const struct sweep *k, int64_t g, double *buf, int upper)
{
    const int64_t *indptr = k->indptr;
    const int32_t *indices = k->indices;
    const double *b = k->b;
    double *y = k->y;
    int64_t n = k->n, lo[SWEEP_CHUNKS], len[SWEEP_CHUNKS], k0[SWEEP_CHUNKS];
    const double *val[SWEEP_CHUNKS], *diag[SWEEP_CHUNKS];
    int64_t c0 = k->group[g], count = k->group[g + 1] - c0, longest = 0;
    for (int64_t c = 0; c < count; c++) {
        lo[c] = k->order[c0 + c] * SWEEP_ROWS;
        len[c] = (lo[c] + SWEEP_ROWS < n ? lo[c] + SWEEP_ROWS : n) - lo[c];
        if (len[c] > longest)
            longest = len[c];
        k0[c] = indptr[lo[c]];
        val[c] = SOURCE_ROW(k->v_, 0, k0[c], indptr[lo[c] + len[c]],
                            buf + c * k->stride);
        if (upper)
            diag[c] = SOURCE_ROW(k->d_, 0, lo[c], lo[c] + len[c],
                                 buf + SWEEP_CHUNKS * k->stride
                                 + c * SWEEP_ROWS);
    }
    for (int64_t q = 0; q < longest; q++)
        for (int64_t c = 0; c < count; c++) {
            if (q >= len[c])
                continue;
            int64_t r = upper ? len[c] - 1 - q : q, i = lo[c] + r;
            int64_t s0 = indptr[i], cnt = indptr[i + 1] - s0;
            const double *v = val[c] + (s0 - k0[c]);
            const int32_t *col = indices + s0;
            double s = b[i];
            for (int64_t e = 0; e < cnt; e++)
                s -= v[e] * y[col[e]];
            y[i] = upper ? s / diag[c][r] : s;
        }
}

/* Thread me's part of a sweep: the next group until none is left. */
static inline __attribute__((always_inline)) void
sweep_claims(const void *job, int64_t me, int upper)
{
    struct sweep *k = (struct sweep *)job;
    double *buf = k->work ? k->work + me * SWEEP_SLICE(k->stride) : NULL;
    for (int64_t g; (g = __atomic_fetch_add(&k->next, 1, __ATOMIC_RELAXED))
                    < k->groups;) {
        for (int spins = 0;
             __atomic_load_n(&k->done, __ATOMIC_ACQUIRE) < k->need[g];)
            if (spins < SWEEP_SPINS)
                spins++;
            else
                sched_yield();
        sweep_group(k, g, buf, upper);
        __atomic_fetch_add(&k->done, k->group[g + 1] - k->group[g],
                           __ATOMIC_RELEASE);
    }
}

static void lower_claims(const void *job, int64_t unit, int64_t me)
{
    (void)unit;
    sweep_claims(job, me, 0);
}

static void upper_claims(const void *job, int64_t unit, int64_t me)
{
    (void)unit;
    sweep_claims(job, me, 1);
}

/* Forward sweep: L y = b with strictly-lower CSR L and an implicit unit
 * diagonal (the ILU(0) L factor), on up to threads threads; work holds
 * threads * SWEEP_SLICE(stride) doubles when the values are compressed. */
void prec_lower_trisolve(const int64_t *indptr, const int32_t *indices,
                         SOURCE(v_), const int64_t *order,
                         const int64_t *group, const int64_t *need,
                         int64_t groups, const double *b, double *y,
                         int64_t n, double *work, int64_t stride,
                         int64_t threads)
{
    struct sweep k = {indptr, indices, SOURCE_NAMES(v_), .order = order,
                      .group = group, .need = need, .groups = groups, .n = n,
                      .stride = stride, .b = b, .y = y, .work = work};
    pool_split(lower_claims, &k, threads, threads, indptr[n]);
}

/* Backward sweep: U y = b with strictly-upper CSR entries plus a separate
 * diagonal source (d_). */
void prec_upper_trisolve(const int64_t *indptr, const int32_t *indices,
                         SOURCE(v_), SOURCE(d_), const int64_t *order,
                         const int64_t *group, const int64_t *need,
                         int64_t groups, const double *b, double *y,
                         int64_t n, double *work, int64_t stride,
                         int64_t threads)
{
    struct sweep k = {indptr, indices, SOURCE_NAMES(v_), SOURCE_NAMES(d_),
                      order, group, need, groups, n, stride, b, y, work};
    pool_split(upper_claims, &k, threads, threads, indptr[n]);
}

/* out = blockdiag(B_0, B_1, ...) @ v with flattened zero-padded
 * bs x bs blocks; the short trailing block only touches its live
 * rows/columns. */
void prec_block_diag_apply(const double *blocks, const double *v,
                           int64_t bs, int64_t n, double *out)
{
    int64_t nb = (n + bs - 1) / bs;
    for (int64_t b = 0; b < nb; b++) {
        int64_t lo = b * bs;
        int64_t hi = lo + bs < n ? lo + bs : n;
        const double *base = blocks + b * bs * bs;
        for (int64_t i = lo; i < hi; i++) {
            double s = 0.0;
            const double *row = base + (i - lo) * bs;
            for (int64_t k = lo; k < hi; k++)
                s += row[k - lo] * v[k];
            out[i] = s;
        }
    }
}
"""


def _declarations(source: str) -> str:
    """The declarations cffi parses, read off ``source`` itself: every
    top-level definition that is not ``static`` and every ``const int64_t``
    constant, with ``SOURCE(p)`` — the nine arguments of one value source —
    expanded by the body of the C macro of that name.  One spelling of each
    prototype: ABI mode checks nothing, so a second one that drifted would
    be silent memory corruption."""
    prototypes = dict(  # by name: engine_isa is defined once per #if branch
        (name, prototype + ";") for prototype, name in re.findall(
            r"^(?!static\b)(\w[\w *]*?\b(\w+)\((?:[^()]|\(\w*\))*\))\s*\{",
            source, re.M))
    constants = re.findall(r"^const (int64_t \w+) = ", source, re.M)
    macro = re.search(r"^#define SOURCE\(p\)((?:.*\\\n)*.*)", source, re.M)
    arguments = macro.group(1).replace("\\\n", " ")
    return re.sub(
        r"SOURCE\((\w+)\)",
        lambda m: arguments.replace("p##", m.group(1)),
        "\n".join([*prototypes.values(), *(f"extern {c};" for c in constants)])
        .replace("FUSED_SOURCE", "SOURCE(v_)"),
    )


_CDEF = _declarations(C_SOURCE)

#: flags that pin IEEE semantics: no FMA contraction, no fast-math —
#: an FMA would change the rounding of every accumulation vs numpy.
#: -O3 is for the loop vectoriser (the exact-scale FRSZ2 decode); it
#: reorders no floating-point operation under these two flags.  No -m
#: flag: width comes from the CLONED routines of C_SOURCE.  -pthread:
#: the pool's helpers; -lm (after the source): the step's sqrt and hypot,
#: libm's own — hypot is the function ``np.hypot`` calls.
_CFLAGS = ["-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math",
           "-pthread"]

#: payload-kind codes shared with the C source
_ALIGNED_KINDS = {8: 0, 16: 1, 32: 2, 64: 3}
_PACKED_KIND = 4


def _cpus() -> int:
    """The CPUs this process may run on (its affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _cache_dir() -> str:
    explicit = os.environ.get("REPRO_JIT_CACHE")
    if explicit:
        return explicit
    return os.path.join(tempfile.gettempdir(), f"repro-jit-{os.getuid()}")


def _compiler() -> str:
    for candidate in (os.environ.get("CC"), sysconfig.get_config_var("CC")):
        if candidate:
            return candidate.split()[0]
    return "cc"


def _compile(compiler: str, flags, lib_path: str) -> None:
    """Compile ``C_SOURCE`` with ``flags`` and publish it at ``lib_path``."""
    fd, src_path = tempfile.mkstemp(suffix=".c", dir=os.path.dirname(lib_path))
    try:
        with os.fdopen(fd, "w") as f:
            f.write(C_SOURCE)
        tmp_lib = src_path + ".so"
        subprocess.run(
            [compiler, *flags, src_path, "-o", tmp_lib, "-lm"],
            check=True,
            capture_output=True,
            text=True,
        )
        # atomic publish: concurrent builders race benignly
        os.replace(tmp_lib, lib_path)
    finally:
        for leftover in (src_path, src_path + ".so"):
            try:
                os.unlink(leftover)
            except OSError:
                pass


def _build_library() -> str:
    """Compile (once, content-hashed) and return the shared-library path.

    A compiler that rejects the build as written — the ``CLONED``
    attribute, in practice — gets one retry with ``-DREPRO_NO_CLONES``:
    the plain build of the same source, which carries the compiler's
    reason (:attr:`CEngine.clone_fallback`).
    """
    # the compiler is part of the key: -O3 code differs per compiler and
    # each build must face the self-test itself
    compiler = _compiler()
    key = hashlib.sha256(
        "\x00".join(
            [C_SOURCE, _CDEF, " ".join(_CFLAGS), sys.platform, compiler]
        ).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"repro_jit_{key}.so")
    if os.path.exists(lib_path):
        return lib_path
    os.makedirs(cache, exist_ok=True)
    try:
        _compile(compiler, _CFLAGS, lib_path)
    except subprocess.CalledProcessError as exc:
        lines = exc.stderr.splitlines() or [str(exc)]
        reason = next((ln for ln in lines if "error" in ln), lines[0])
        # a C string literal: nothing that could end or escape it
        reason = re.sub(r"[^\w .,:;=()<>+/'-]", "?", reason.strip())[:200]
        why = f'"{compiler} rejected the cloned build: {reason}"'
        _compile(compiler, [*_CFLAGS, f"-DREPRO_NO_CLONES={why}"], lib_path)
    return lib_path


class RowPointers:
    """The C view of one stored container: its two array pointers.

    Every C decode reads a container through one of these — made once
    per stored container by the accessor that stores it (so a read, or a
    fused call's table, starts from ready pointers), or for the one call
    — which makes this constructor the one place the arrays are held to
    the layout before C indexes them by the layout alone.  Each pointer
    owns a reference that keeps its array alive and reads the array
    where it is: an in-place change to a stored payload is decoded as it
    is *now*.
    """

    __slots__ = ("engine", "layout", "payload", "exponents")

    def __init__(self, engine: "CEngine", comp) -> None:
        layout = comp.layout
        layout.check_arrays(comp.payload, comp.exponents)
        # any integer exponents decode (a converted copy, alive as long
        # as its pointer); only an int32 stream is read in place
        exponents = np.ascontiguousarray(comp.exponents, dtype=np.int32)
        self.engine = engine
        self.layout = layout
        from_buffer = engine._ffi.from_buffer
        self.payload = from_buffer("uint8_t *", comp.payload)
        self.exponents = from_buffer("int32_t *", exponents)


def _bad_state(state: np.ndarray, k: int) -> None:
    """Refuse ``state``: not the float64 least-squares state of ``m``
    columns (``2 m**2 + 5 m + 1`` doubles) with room for column ``k``."""
    raise ValueError(f"no least-squares state of more than {k} columns: "
                     f"{state.dtype} {state.shape}")


class _Rows:
    """``count`` rows of ``length`` values, as the fused kernels walk them:
    the base of the two ``FUSED_SOURCE``s of ``C_SOURCE``.

    A source is made once by whoever owns the rows and walked many times,
    so it keeps what a walk needs beside its operands: the C arguments
    (:attr:`source`) and one cache-line-aligned work buffer, allocated on
    first use and sized by ``capacity`` and the engine's threads — never
    by ``n``: a round of tile partials, then one slice per thread.

    :meth:`fused_dot`, :meth:`fused_axpy` and their width-two forms
    :meth:`fused_dot2` and :meth:`fused_axpy2` are the walks of a row
    source of :mod:`repro.fused.kernels` — the only way to the C kernels,
    for a solve and for the self-test alike.  Their caller has validated
    the operands it passes (contiguous float64 vectors: ``w`` of at least
    ``n`` values, writable where written; coefficients of at least ``j``;
    ``tile >= 1``); they check what
    only the source knows — ``j`` against its rows, ``n`` against their
    length — and return the doubles of work the walk used.
    """

    __slots__ = ("_engine", "source", "count", "length", "capacity", "piece",
                 "_work", "_work_ptr")

    def __init__(self, engine: "CEngine", count: int, length: int,
                 capacity: int, piece: int) -> None:
        self._engine = engine
        self.count, self.length = count, length
        #: rows the source can hold: what sizes the work buffer
        self.capacity = capacity
        #: values per decoded row piece a walk keeps (0: rows read in place)
        self.piece = piece
        self._work, self._work_ptr = np.empty(0), engine._ffi.NULL

    @property
    def work_nbytes(self) -> int:
        """Bytes of the kept work buffer (0 until a walk needed one)."""
        return int(self._work.nbytes)

    def _walk(self, j: int, n: int, work: int = 0):
        """The library, the pointer maker and ``work`` doubles of buffer,
        once ``j`` rows of ``n`` values are known to be there (C decodes
        compressed rows by their layout: all ``length`` values or none)."""
        if (not 0 < j <= self.count or not 0 <= n <= self.length
                or (self.piece and n != self.length)):
            raise ValueError(
                f"source holds {self.count} rows of {self.length} values; "
                f"asked for j={j}, n={n}"
            )
        if work > self._work.size:
            # 64-byte registers walk it: a buffer that straddles cache
            # lines costs a walk a tenth of its time
            raw = np.empty(work + 7)
            skip = -(raw.ctypes.data // 8) % 8
            self._work = raw[skip:skip + work]
            self._work_ptr = self._engine._ptr(self._work, "double *")
        return self._engine._lib, self._engine._ffi.from_buffer, self._work_ptr

    def _dot_work(self, rows: int, n: int, tile: int, width: int) -> int:
        """Doubles a dot walk of ``width`` operands over ``rows`` rows uses:
        a round of partials, then a decoded row tile per thread."""
        engine = self._engine
        decoded = -(-min(tile, n) // 8) * 8 if self.piece else 0
        return engine.fused_round * width * rows + engine.threads * decoded

    def fused_dot(self, j: int, n: int, tile: int, w, h) -> int:
        """``h[r] += v_r[:n] . w`` (``fused_dot`` in ``C_SOURCE``)."""
        lib, ptr, work = self._walk(j, n, self._dot_work(self.capacity, n, tile, 1))
        lib.fused_dot(*self.source, j, n, tile, ptr("double *", w),
                      ptr("double *", h), work, self._engine.threads)
        return self._dot_work(j, n, tile, 1)

    def fused_dot2(self, j: int, n: int, tile: int, x, y, hx, hy) -> int:
        """:meth:`fused_dot` of ``x`` into ``hx`` and of ``y`` into ``hy``,
        in one walk."""
        lib, ptr, work = self._walk(j, n, self._dot_work(self.capacity, n, tile, 2))
        lib.fused_dot2(*self.source, j, n, tile, ptr("double *", x),
                       ptr("double *", y), ptr("double *", hx),
                       ptr("double *", hy), work, self._engine.threads)
        return self._dot_work(j, n, tile, 2)

    def fused_axpy(self, j: int, n: int, tile: int, y, w,
                   store: bool = False) -> int:
        """``w[:n] -= sum_r y[r] v_r[:n]`` (``store``: ``w = sum``); the
        sum is per element, so the grid (``tile``) plays no part."""
        lib, ptr, _ = self._walk(j, n)
        lib.fused_axpy(*self.source, j, n, ptr("double *", y),
                       ptr("double *", w), store)
        return 0

    def fused_axpy2(self, j: int, n: int, tile: int, a, x, b, y) -> int:
        """:meth:`fused_axpy` of ``x`` with ``a`` and of ``y`` with ``b``,
        in one walk."""
        lib, ptr, _ = self._walk(j, n)
        lib.fused_axpy2(*self.source, j, n, ptr("double *", a),
                        ptr("double *", x), ptr("double *", b),
                        ptr("double *", y))
        return 0

    def step(self, k: int, n: int, tile: int, t, w_in, eta: float, state, q,
             w, a, b, out) -> int:
        """The first half of an Arnoldi step over the leading ``k`` rows
        (``fused_step`` in ``C_SOURCE``): the bits of
        :func:`repro.fused.kernels.step_rows`, in one call; ``state`` (or
        ``None``), the least-squares state whose column ``k - 1`` the step
        makes final, is updated in place; without ``w_in`` the step closes
        the cycle.  ``out[4]``: the doubles of work the dot walk uses (the
        axpy uses none)."""
        engine = self._engine
        used, work = 0, engine._ffi.NULL
        if k:
            held, decoded = engine.fused_round, -(-min(tile, n) // 8) * 8
            decoded = engine.threads * decoded if self.piece else 0
            used = (held if w_in is None else 2 * held) * k + decoded
            lib, ptr, work = self._walk(k, n, 2 * held * self.capacity + decoded)
        else:  # nothing stored yet: only the step's dense work
            lib, ptr = engine._lib, engine._ffi.from_buffer
        m = 0
        if state is not None:  # m columns: 2 m**2 + 5 m + 1 doubles
            m = (math.isqrt(8 * state.size + 17) - 5) // 4
            if (state.dtype != np.float64 or 2 * m * m + 5 * m + 1 != state.size
                    or not k - (w_in is None) < m):
                _bad_state(state, k - (w_in is None))
        null = engine._ffi.NULL
        flags = lib.fused_step(
            *self.source, k, n, tile, ptr("double *", t),
            null if w_in is None else ptr("double *", w_in), eta,
            null if state is None else ptr("double *", state), m,
            ptr("double *", q), null if w_in is None else ptr("double *", w),
            ptr("double *", a), null if w_in is None else ptr("double *", b),
            ptr("double *", out), work, engine.threads)
        out[4] = used
        return flags

    def column(self, r: int, n: int, tile: int, buf, w, w_in, k: int,
               eta: float, flexible: bool, state, a, b, out) -> int:
        """The second half of the step (``fused_column``): row ``r`` holds
        the vector the first half finished, as stored (a compressed row is
        decoded into ``buf``, ``n`` doubles); ``w`` becomes the next
        tentative vector and column ``k`` opens in ``state``."""
        if not 0 <= r < self.count or n != self.length:
            raise ValueError(
                f"source holds {self.count} rows of {self.length} values; "
                f"asked for row {r} of n={n}")
        engine = self._engine
        ptr = engine._ffi.from_buffer
        m = 0
        if state is not None:
            m = (math.isqrt(8 * state.size + 17) - 5) // 4
            if (state.dtype != np.float64 or 2 * m * m + 5 * m + 1 != state.size
                    or not k < m):
                _bad_state(state, k)
        return engine._lib.fused_column(
            *self.source, r, n, tile, ptr("double *", buf), ptr("double *", w),
            ptr("double *", w_in), k, eta, flexible,
            engine._ffi.NULL if state is None else ptr("double *", state), m,
            ptr("double *", a), ptr("double *", b), ptr("double *", out),
            engine.threads)

class DenseRows(_Rows):
    """The rows of a C-contiguous float64 ``(count, length)`` array, read
    where they are stored (the columns of a basis mirror, a scratch tile);
    its pointer keeps the array alive."""

    __slots__ = ()

    def __init__(self, engine: "CEngine", rows: np.ndarray) -> None:
        if not (isinstance(rows, np.ndarray) and rows.ndim == 2
                and rows.dtype == np.float64 and rows.flags.c_contiguous):
            raise ValueError(
                "rows must be a TileTable or a C-contiguous 2-D float64 array"
            )
        super().__init__(engine, *rows.shape, rows.shape[0], 0)
        null = engine._ffi.NULL
        self.source = (engine._ptr(rows, "double *"), self.length,
                       null, null, 0, 0, 0, 0, 0)


class TileTable(_Rows):
    """C pointer table over up to ``capacity`` same-layout containers.

    The compressed source of the fused reductions (each row piece is
    decoded and reduced in registers) and, called as
    ``table(i0, i1, out)``, the window decoder that writes rows
    ``v_0[i0:i1] ... v_{count-1}[i0:i1]`` into the C-contiguous
    ``(count, >= i1 - i0)`` float64 buffer ``out`` in one C call.  It
    holds the :class:`RowPointers` it was built from and copies nothing.
    The two C arrays are allocated once, for ``capacity`` rows (default:
    the rows given), and :meth:`bind` points a row at another container
    in place, so a Krylov basis extends one table with every write
    instead of assembling one per fused call.  The caller has checked
    that the containers share one layout.
    """

    __slots__ = ("_rows", "layout")

    def __init__(self, engine: "CEngine", rows, capacity: int = 0) -> None:
        self._rows = rows = list(rows)
        self.layout = layout = rows[0].layout
        super().__init__(engine, len(rows), layout.n,
                         max(capacity, len(rows)), engine.fused_piece)
        #: the FUSED_SOURCE arguments of the C kernels
        self.source = (
            engine._ffi.NULL,
            0,
            engine._ffi.new("uint8_t *[]", self.capacity),
            engine._ffi.new("int32_t *[]", self.capacity),
            *engine._layout_args(layout),
        )
        for k, row in enumerate(rows):
            self.source[2][k], self.source[3][k] = row.payload, row.exponents

    def bind(self, k: int, row: "RowPointers") -> None:
        """Point row ``k`` at ``row``'s container (``k == count`` appends)."""
        if not 0 <= k <= self.count or k >= self.capacity:
            raise IndexError(
                f"row {k} of {self.count} rows (capacity {self.capacity})"
            )
        self.source[2][k], self.source[3][k] = row.payload, row.exponents
        self._rows[k:k + 1] = [row]  # owns the arrays the C row points into
        self.count = len(self._rows)

    def truncate(self, count: int) -> None:
        """Forget the rows from ``count`` on (their containers with them)."""
        del self._rows[count:]
        self.count = len(self._rows)

    def __call__(self, i0: int, i1: int, out: np.ndarray) -> None:
        engine = self._engine
        engine._lib.frsz2_decode_tile(
            *self.source[2:4], self.count, *self.source[4:], i0, i1,
            engine._ptr(out, "double *"), out.shape[1],
        )


def _check_csr_pattern(indptr: np.ndarray, indices: np.ndarray) -> None:
    """Raise unless ``indptr`` walks ``indices`` row by row, in bounds."""
    if (indptr.ndim != 1 or indptr.size < 1 or indptr[0] != 0
            or indptr[-1] != indices.size or np.any(np.diff(indptr) < 0)):
        raise ValueError(
            "indptr must rise from 0 to the number of stored indices"
        )


#: the dense stand-in for a source of no values
_NO_VALUES = np.zeros((1, 1))


class ChunkSweep:
    """One strictly-triangular CSR pattern prepared for repeated sweeps.

    The preparation is the chunk-wavefront schedule of the C kernels
    (see ``prec_lower_trisolve`` in ``C_SOURCE``): :attr:`order` lists
    the chunks of ``engine.sweep_rows`` consecutive rows level by level,
    level ``l`` being ``order[level_ptr[l]:level_ptr[l + 1]]``, and
    :attr:`group` cuts it into the lock-step groups of up to
    ``engine.sweep_chunks`` chunks the pool's threads claim: group ``g``
    is ``order[group[g]:group[g + 1]]``, inside one level, and waits for
    the ``need[g]`` chunks of the levels below it.  It is made once, from
    the pattern alone, and checked here — every index in bounds and
    strictly on its side of the diagonal — before C may walk it.  Column
    indices are ``int32`` (``indptr`` stays ``int64``), so a pattern of
    ``2**31`` rows or more is refused.  The values come with each call: a
    one-row :class:`TileTable` (decoded a chunk at a time into a per-call
    work buffer, a slice per thread) or float64 values read where they
    are stored.
    """

    __slots__ = ("_engine", "indptr", "indices", "n", "order", "level_ptr",
                 "group", "need", "stride", "_pattern", "_groups")

    #: sweep direction; the subclasses fix it
    upper = False

    def __init__(self, engine: "CEngine", indptr, indices) -> None:
        self._engine = engine
        self.n = n = len(indptr) - 1
        if n >= 2 ** 31:
            raise ValueError(
                f"a sweep of {n} rows does not fit int32 column indices"
            )
        self.indptr = indptr = engine._c(indptr, np.int64)
        indices = np.asarray(indices)
        if indices.dtype != np.int32:  # out of range stays out of range
            indices = np.clip(indices, -1, n)
        self.indices = indices = engine._c(indices, np.int32)
        _check_csr_pattern(indptr, indices)
        rows, width = engine.sweep_rows, engine.sweep_chunks
        chunks = -(-n // rows)
        level = np.zeros(chunks, dtype=np.int64)
        self._pattern = (engine._ptr(indptr, "int64_t *"),
                         engine._ptr(indices, "int32_t *"))
        bad = engine._lib.prec_chunk_levels(
            *self._pattern, n, int(self.upper), engine._ptr(level, "int64_t *")
        )
        if bad >= 0:
            side = "above" if self.upper else "below"
            raise ValueError(
                f"row {bad} holds an entry that is not strictly {side} the "
                "diagonal"
            )
        # level by level and, inside a level, in the sweep's direction
        if self.upper:
            self.order = chunks - 1 - np.argsort(level[::-1], kind="stable")
        else:
            self.order = np.argsort(level, kind="stable")
        per_level = np.bincount(level)
        self.level_ptr = np.concatenate(([0], np.cumsum(per_level)))
        # each level cut into groups of up to ``width`` chunks; a group
        # waits for the chunks of the levels below its own
        groups = -(-per_level // width)
        self.need = np.repeat(self.level_ptr[:-1], groups)
        rank = np.arange(self.need.size) - np.repeat(np.cumsum(groups) - groups, groups)
        self.group = np.append(self.need + rank * width, chunks)
        self._groups = (engine._ptr(self.order, "int64_t *"),
                        engine._ptr(self.group, "int64_t *"),
                        engine._ptr(self.need, "int64_t *"), self.need.size)
        #: the most values any chunk holds (one chunk's share of the work)
        bounds = indptr[np.minimum(np.arange(chunks + 1) * rows, n)]
        self.stride = int(np.diff(bounds).max(initial=0))

    def _solve(self, kernel, b, data, *udiag) -> np.ndarray:
        engine = self._engine
        n = self.n
        b = engine._c(b, np.float64)
        if b.shape != (n,):
            raise ValueError(f"expected a right-hand side of length {n}")
        sources = [*engine._values_source(data, self.indices.size, "data")]
        for diagonal in udiag:
            sources += engine._values_source(diagonal, n, "udiag")
        threads = engine.threads
        work = engine._ffi.NULL
        if any(isinstance(values, TileTable) for values in (data, *udiag)):
            slice_ = engine.sweep_chunks * (self.stride + engine.sweep_rows)
            work = engine._ptr(np.empty(threads * slice_), "double *")
        y = np.empty(n)
        kernel(
            *self._pattern, *sources, *self._groups,
            engine._ptr(b, "double *"), engine._ptr(y, "double *"), n,
            work, self.stride, threads,
        )
        return y


class LowerSweep(ChunkSweep):
    """``L y = b``: strictly-lower entries, implicit unit diagonal."""

    __slots__ = ()

    def __call__(self, data, b) -> np.ndarray:
        return self._solve(self._engine._lib.prec_lower_trisolve, b, data)


class UpperSweep(ChunkSweep):
    """``U y = b``: strictly-upper entries plus the diagonal ``udiag``."""

    __slots__ = ()
    upper = True

    def __call__(self, data, udiag, b) -> np.ndarray:
        return self._solve(
            self._engine._lib.prec_upper_trisolve, b, data, udiag
        )


class CEngine:
    """cffi/ABI-mode wrapper over the runtime-compiled C kernels.

    All methods take/return numpy arrays; inputs are made contiguous
    with the exact dtype the C side expects (an exact-value conversion,
    so results stay byte-equal to the reference).
    """

    name = "cffi"

    def __init__(self) -> None:
        import cffi

        self._ffi = cffi.FFI()
        self._ffi.cdef(_CDEF)
        self._lib = self._ffi.dlopen(_build_library())
        #: the ISA clone the loader bound, by the resolver's order;
        #: ``"baseline"`` for a build without clones
        self.isa = self._ffi.string(self._lib.engine_isa()).decode()
        #: why the compiler, asked for clones, built none — or ``None``
        self.clone_fallback: Optional[str] = (
            self._ffi.string(self._lib.engine_clone_fallback()).decode() or None
        )
        #: chunk-wavefront geometry of the triangular sweeps (C constants)
        self.sweep_rows = int(self._lib.prec_sweep_rows)
        self.sweep_chunks = int(self._lib.prec_sweep_chunks)
        #: elements per piece of the fused axpy (C constant)
        self.fused_piece = int(self._lib.fused_piece)
        #: tiles whose partials a fused walk holds at once (C constant)
        self.fused_round = int(self._lib.fused_round)
        #: values a call must reduce before it is split (C constant)
        self.pool_min_work = int(self._lib.pool_min_work)
        #: threads a split call uses, the caller included: the CPUs this
        #: process may run on (:meth:`set_threads`)
        self.threads = self.set_threads(_cpus())

    def set_threads(self, threads: int) -> int:
        """Size the process's pool to ``threads`` (clamped to 1..64; what
        a worker process that shares the host sets) and return the size.
        Any size gives the same bits."""
        self.threads = int(self._lib.engine_set_threads(int(threads)))
        return self.threads

    # -- pointer plumbing ---------------------------------------------

    def _ptr(self, arr: np.ndarray, ctype: str):
        # a from_buffer pointer owns a reference to ``arr`` (alive for
        # as long as the pointer is) and rejects non-contiguous views
        return self._ffi.from_buffer(ctype, arr, require_writable=False)

    @staticmethod
    def _c(arr, dtype) -> np.ndarray:
        return np.ascontiguousarray(arr, dtype=dtype)

    # -- FRSZ2 codec --------------------------------------------------

    @staticmethod
    def _layout_args(layout) -> tuple:
        """``(kind, nwords, bs, l, wpb)``: a layout, as C is told it."""
        if layout.is_aligned:
            kind, nwords = _ALIGNED_KINDS[layout.bit_length], 0
        else:
            kind, nwords = _PACKED_KIND, layout.value_words
        return (kind, nwords, layout.block_size, layout.bit_length,
                layout.words_per_block)

    def encode(self, x, layout, rounding):
        """Steps 1-6: ``x`` as the stored ``(payload, exponents)`` of
        ``layout``; byte-equal to the reference ``encode_numpy``."""
        if x.dtype != np.float64 or x.shape != (layout.n,):
            raise ValueError(
                f"expected a float64 vector of {layout.n} values"
            )
        # C writes every byte of both, padding included
        payload = np.empty(layout.payload_size, dtype=layout.payload_dtype)
        e_max = np.empty(layout.num_blocks, dtype=np.int32)
        if layout.n:
            kind, _, bs, l, wpb = self._layout_args(layout)
            from_buffer = self._ffi.from_buffer
            rc = self._lib.frsz2_encode(
                from_buffer("double *", x),
                layout.n,
                bs,
                l,
                int(bool(rounding)),
                kind,
                wpb,
                from_buffer("uint8_t *", payload),
                from_buffer("int32_t *", e_max),
            )
            if rc:
                raise ValueError("FRSZ2 does not support NaN or Inf inputs")
        return payload, e_max

    def row_pointers(self, comp) -> "RowPointers":
        """``comp``'s array pointers, checked against its layout."""
        return RowPointers(self, comp)

    def row_table(self, rows, capacity: int = 0) -> "TileTable":
        """Same-layout :class:`RowPointers` as one fused-kernel source,
        with room for ``capacity`` rows (:meth:`TileTable.bind`)."""
        return TileTable(self, rows, capacity)

    def norm2(self, x: np.ndarray, tile: int) -> float:
        """``||x||`` of a C-contiguous float64 vector in the fused dot's
        lane order over a grid of ``tile`` (``fused_norm2``)."""
        return self._lib.fused_norm2(self._ptr(x, "double *"), x.size, tile,
                                     self.threads)

    def dense_rows(self, rows: np.ndarray) -> "DenseRows":
        """A C-contiguous 2-D float64 array as a fused-kernel source."""
        return DenseRows(self, rows)

    def decode_tile(self, comps) -> "TileTable":
        """Same-layout containers prepared for repeated window decodes."""
        return TileTable(self, [RowPointers(self, c) for c in comps])

    def decode_gather(self, comp, indices) -> np.ndarray:
        """Decode arbitrary positions straight from the stored payload."""
        rows = RowPointers(self, comp)
        indices = self._c(indices, np.int64)
        out = np.empty(indices.size, dtype=np.float64)
        kind, nwords, *geometry = self._layout_args(rows.layout)
        bad = self._lib.frsz2_decode_gather(
            rows.payload,
            kind,
            nwords,
            rows.exponents,
            self._ptr(indices, "int64_t *"),
            indices.size,
            rows.layout.n,
            *geometry,
            self._ptr(out, "double *"),
        )
        if bad:
            raise IndexError(
                f"index {indices[bad - 1]} out of range for "
                f"{rows.layout.n} stored values"
            )
        return out

    # -- SpMV ---------------------------------------------------------
    # Each writes through a raw pointer into ``y``, which the caller
    # has checked (``SpmvEngine.matvec``): a writable C-contiguous
    # float64 array of the row count, sharing no memory with ``x``.
    # (``from_buffer`` directly, not ``_ptr``: a product is one frame.)

    def csr_matvec(self, rows, cols, data, x, y) -> None:
        """Entry-ordered CSR accumulation (``np.bincount`` order)."""
        ptr = self._ffi.from_buffer
        self._lib.csr_matvec(
            ptr("int64_t *", rows), ptr("int64_t *", cols),
            ptr("double *", data), data.size,
            ptr("double *", np.ascontiguousarray(x, dtype=np.float64)),
            ptr("double *", y), y.size,
        )

    def ell_matvec(self, cols_t, vals_t, x, work, y) -> None:
        """Slot-ordered ELL accumulation (matches both numpy kernels)."""
        ptr = self._ffi.from_buffer
        width, m = cols_t.shape
        self._lib.ell_matvec(
            ptr("int64_t *", cols_t), ptr("double *", vals_t), width, m,
            ptr("double *", np.ascontiguousarray(x, dtype=np.float64)),
            ptr("double *", y),
        )

    # -- preconditioner set-up and applies ------------------------------

    def ilu0_factor(self, indptr, cols, vals):
        """ILU(0) of column-sorted CSR rows; see ``ilu0_factor_numpy``.

        Returns ``(lu, diag_pos, row)``: the factored values in the
        pattern's order, each row's diagonal position, and ``-1`` or the
        first row whose pivot is missing or exactly zero.
        """
        indptr = self._c(indptr, np.int64)
        cols = self._c(cols, np.int64)
        n = indptr.size - 1
        _check_csr_pattern(indptr, cols)
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise ValueError("column index out of range")
        lu = np.array(vals, dtype=np.float64)
        if lu.shape != cols.shape:
            raise ValueError("cols and vals must have the same length")
        pos = np.full(n, -1, dtype=np.int64)
        diag_pos = np.empty(n, dtype=np.int64)
        row = self._lib.prec_ilu0_factor(
            self._ptr(indptr, "int64_t *"),
            self._ptr(cols, "int64_t *"),
            self._ptr(lu, "double *"),
            n,
            self._ptr(pos, "int64_t *"),
            self._ptr(diag_pos, "int64_t *"),
        )
        return lu, diag_pos, int(row)

    def lower_unit_trisolve(self, indptr, indices) -> "LowerSweep":
        """``sweep(data, b)`` over one strictly-lower pattern."""
        return LowerSweep(self, indptr, indices)

    def upper_trisolve(self, indptr, indices) -> "UpperSweep":
        """``sweep(data, udiag, b)`` over one strictly-upper pattern."""
        return UpperSweep(self, indptr, indices)

    def _values_source(self, values, size: int, name: str):
        """The C source arguments of one row of exactly ``size`` values.

        ``values`` is a one-row :class:`TileTable`, decoded a chunk at a
        time inside the sweep, or float64 values read where they are.
        """
        if not isinstance(values, TileTable):
            values = self._c(values, np.float64).reshape(1, -1)
            if values.shape[1] != size:
                raise ValueError(
                    f"{name} must hold {size} values, got {values.shape[1]}"
                )
            if not size:  # C tells the two kinds of source apart by a pointer
                values = _NO_VALUES
            values = DenseRows(self, values)
        values._walk(1, size)  # one row of ``size`` values, or a named error
        return values.source

    def block_diag_apply(self, blocks, v, bs, n) -> np.ndarray:
        blocks = self._c(blocks, np.float64)
        v = self._c(v, np.float64)
        out = np.empty(int(n), dtype=np.float64)
        self._lib.prec_block_diag_apply(
            self._ptr(blocks, "double *"),
            self._ptr(v, "double *"),
            int(bs),
            int(n),
            self._ptr(out, "double *"),
        )
        return out
