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
  ``DECODE_BLOCK_RUN``);
* no decode takes a raw array pointer: each reads a container through
  its :class:`RowPointers`, whose constructor holds the arrays to the
  layout C indexes them by, and the gather checks every index it is
  handed;
* the SpMV kernels accumulate each row strictly sequentially in entry
  order, exactly like ``np.bincount`` (CSR) and the slot-wise ELL/SELL
  passes;
* the fused basis reductions (``fused_dot`` / ``fused_axpy``) follow the
  accumulation order written in :mod:`repro.fused.kernels` — eight
  independent lanes and a fixed tree per tile, a row-ordered sum per
  element — whatever the rows come from: float64 rows read in place or
  FRSZ2 containers decoded a row piece at a time feed the same loop;
  the sweep ``fused_axpy_dot`` is the one followed by the other, walked
  once: a row's lanes persist across the pieces of a tile;
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
and the units of the three fused walks, ``dot_tile``, ``axpy_run`` and
``axpy_dot_tile``) are compiled a second time for ``x86-64-v4`` (``CLONED`` in ``C_SOURCE``, GCC/Clang
``target_clones``); the dynamic loader binds the widest clone the CPU
runs, and :attr:`CEngine.isa` names it.  Register width moves no bit:
every operation order above is written out, the two IEEE flags hold in
every clone, and a rounded product or sum is the same in a 128-bit and
in a 512-bit register — which the self-test checks at every load for
whichever clone was bound.  The SpMV kernels are not cloned (their
gathers gain nothing, measured).  A compiler that rejects the attribute
gets one retry with ``-DREPRO_NO_CLONES``, which is the plain build;
:attr:`CEngine.clone_fallback` then keeps its reason.  ``-march=native``
was measured equal and not taken: a cached library would be fatal
(``SIGILL``), not a named degrade, on any lesser CPU.

Threads
-------
The three fused walks and the SpMV kernels are split over one pool of
threads (pthreads inside ``C_SOURCE``, "one pool, two clients" there).
The unit of a split is a tile of the walk's grid (``fused_dot``, the
sweep), a run of eight pieces (``fused_axpy``) or a run of
``POOL_ROWS`` rows (SpMV).  The caller claims units from the last one
down, the helpers from the first up, off one atomic word.  Every unit
writes only what is its own: the elements of ``w`` or ``y`` in its
range, each summed in the written order on one thread, or the ``j``
partials of its tile, into the caller's buffer.  The caller adds the
partials to ``h`` / ``u`` in tile order after the join, a round of
``FUSED_ROUND`` tiles at a time.  So no bit depends on the thread count
or on which thread took which unit; and since a call on one thread
takes its tiles last first, the self-test fails a reduction in any
other order.  Each thread's decode buffer, lanes and row pieces are its
slice of the work buffer the source keeps (:class:`_Rows`: ``capacity x
(FUSED_ROUND + threads x slice)`` doubles); helpers allocate nothing.

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
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <string.h>
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

static inline __attribute__((always_inline)) uint64_t
read_packed(const uint32_t *words, int64_t nwords, int64_t bitpos, int64_t l)
{
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

/* Decode values [i0, i1) of one container into out[0 .. i1 - i0): one
 * exponent read and one slot-width dispatch per block. */
CLONED
static void decode_range(const uint8_t *payload, int32_t kind,
                         int64_t nwords, const int32_t *exponents,
                         int64_t i0, int64_t i1, int64_t bs, int64_t l,
                         int64_t wpb, double *out)
{
    uint64_t sig_mask = (1ULL << (l - 1)) - 1ULL;
    for (int64_t b = i0 / bs; b * bs < i1; b++) {
        int64_t lo = b * bs < i0 ? i0 : b * bs;
        int64_t hi = (b + 1) * bs < i1 ? (b + 1) * bs : i1;
        int64_t cnt = hi - lo;
        int64_t e_max = exponents[b];
        int exact = l <= 54 && e_max >= l - 1 && e_max <= 2046;
        double scale = exact ? u2d((uint64_t)(e_max - (l - 2)) << 52) : 0.0;
        double *restrict o = out + (lo - i0);
        switch (kind) {
        case 0: {
            const uint8_t *p = payload + lo;
            DECODE_BLOCK_RUN(p[k], int32_t)
            break;
        }
        case 1: {
            const uint16_t *p = (const uint16_t *)payload + lo;
            DECODE_BLOCK_RUN(p[k], int32_t)
            break;
        }
        case 2: {
            const uint32_t *p = (const uint32_t *)payload + lo;
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
            DECODE_BLOCK_RUN(read_packed(words, nwords, bit0 + k * l, l),
                             int64_t)
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

/* ---- one pool, two clients ---------------------------------------------
 * A split call cuts its work into units — the tiles of a fused walk's grid,
 * runs of pieces of the axpy, runs of rows of an SpMV — which the caller
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
 * elements per piece of the axpy and the sweep; tiles whose partials a
 * walk holds before adding them up (a round: the partials are a bound
 * independent of n).  Measured: docs/ARCHITECTURE.md, "One pool, two
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
 * into buf.  p prefixes the argument names, so a kernel may take two. */
#define SOURCE(p)                                                         \
    const double *p##dense, int64_t p##ld,                                \
    const uint8_t *const *p##payloads,                                    \
    const int32_t *const *p##exponents, int32_t p##kind,                  \
    int64_t p##nwords, int64_t p##bs, int64_t p##l, int64_t p##wpb
#define SOURCE_ROW(p, r, i0, i1, buf)                                     \
    (p##dense ? p##dense + (r) * p##ld + (i0)                             \
              : (decode_range(p##payloads[r], p##kind, p##nwords,         \
                              p##exponents[r], i0, i1, p##bs, p##l,       \
                              p##wpb, buf), (const double *)(buf)))

/* ---- fused basis reductions: one source, the basis rows ---------------
 * Each walk is cut into units for the pool: the tiles of its grid (dot,
 * sweep) or runs of pieces (axpy).  A walk's arguments travel to the
 * units in one struct walk: the source (FUSED_SOURCE's nine, so
 * FUSED_ROW reads k->v_*), the operands, and the caller's work buffer —
 * FUSED_ROUND * j tile partials, then one slice of stride doubles per
 * thread (thread me's at slices + me * stride). */
#define FUSED_SOURCE SOURCE(v_)
#define FUSED_ROW(r, i0, i1, buf) SOURCE_ROW(k->v_, r, i0, i1, buf)
#define WALK_SOURCE                                                       \
    v_dense, v_ld, v_payloads, v_exponents, v_kind, v_nwords, v_bs, v_l,  \
    v_wpb

struct walk {
    const double *v_dense;
    int64_t v_ld;
    const uint8_t *const *v_payloads;
    const int32_t *const *v_exponents;
    int32_t v_kind;
    int64_t v_nwords, v_bs, v_l, v_wpb;
    int64_t j, n, tile;
    int64_t round;          /* the round's first tile */
    const double *y;
    double *w;
    double *part, *slices;
    int64_t stride;
    int32_t store;
};

/* Every tile of the grid, a round at a time: the round's tiles on the
 * pool, each writing its j partials, then acc[r] += them in tile order. */
static void fused_rounds(pool_task task, struct walk *k, double *acc,
                         int64_t threads)
{
    int64_t tiles = (k->n + k->tile - 1) / k->tile;
    for (k->round = 0; k->round < tiles; k->round += FUSED_ROUND) {
        int64_t units = tiles - k->round;
        units = units < FUSED_ROUND ? units : FUSED_ROUND;
        pool_split(task, k, units, threads, k->j * k->n);
        for (int64_t t = 0; t < units; t++)
            for (int64_t r = 0; r < k->j; r++)
                acc[r] += k->part[t * k->j + r];
    }
}

/* The partials of v_r . w over tile t of the round, for every row in
 * order.  A partial is the written lane order: eight accumulators from
 * +0.0, element i joins lane (i - t0) mod 8 as a rounded product added
 * with a rounded sum, then the fixed tree below.  The eight lanes are
 * independent, so the vectoriser may keep them in any register width
 * without moving a bit. */
CLONED
static void dot_tile(const void *job, int64_t t, int64_t me)
{
    const struct walk *k = job;
    int64_t t0 = (k->round + t) * k->tile;
    int64_t len = (t0 + k->tile < k->n ? t0 + k->tile : k->n) - t0;
    const double *restrict x = k->w + t0;
    double *buf = k->slices + me * k->stride, *p = k->part + t * k->j;
    for (int64_t r = 0; r < k->j; r++) {
        const double *restrict v = FUSED_ROW(r, t0, t0 + len, buf);
        double a[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
        int64_t i = 0;
        for (; i + 8 <= len; i += 8)
            for (int q = 0; q < 8; q++)
                a[q] += v[i + q] * x[i + q];
        for (int q = 0; i < len; i++, q++)
            a[q] += v[i] * x[i];
        p[r] = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
    }
}

/* h[r] += the tile partials of v_r . w in tile order.  A compressed row
 * tile is decoded into the thread's slice: min(tile, n) doubles, rounded
 * up to a cache line. */
void fused_dot(FUSED_SOURCE, int64_t j, int64_t n, int64_t tile,
               const double *w, double *h, double *work, int64_t threads)
{
    int64_t stride = v_dense ? 0 : ((tile < n ? tile : n) + 7) & ~7LL;
    struct walk k = {WALK_SOURCE, j, n, tile, 0, NULL, (double *)w, work,
                     work + FUSED_ROUND * j, stride, 0};
    fused_rounds(dot_tile, &k, h, threads);
}

/* Per element: s = y[0] v_0[i], then s += y[r] v_r[i] for r = 1..j-1,
 * then w[i] -= s (store == 0) or w[i] = s (store != 0: combine).  Every
 * element is independent, so the walk is free: short pieces keep the
 * partial sums and the decoded row pieces close, and rows are taken four
 * at a time so a partial sum stays in a register across four of its
 * additions — still added one row after the other, in row order.
 *
 * axpy_piece leaves the sums of elements [i0, i0 + len) in s.  A
 * compressed row piece is decoded into buf + slot * FUSED_PIECE: slot is
 * the row when keep != 0 (the sweep below reads every row piece again),
 * else the row's place in its group of four. */
static inline __attribute__((always_inline)) void
axpy_piece(const struct walk *k, int64_t i0, int64_t len, double *restrict s,
           double *buf, int keep)
{
#define PIECE_ROW(r, g)                                                   \
    FUSED_ROW(r, i0, i0 + len, buf + (keep ? (r) : (g)) * FUSED_PIECE)
    const double *y = k->y;
    const double *restrict a = PIECE_ROW(0, 0);
    double ca = y[0];
    for (int64_t i = 0; i < len; i++)
        s[i] = ca * a[i];
    int64_t r = 1;
    for (; r + 4 <= k->j; r += 4) {
        a = PIECE_ROW(r, 0);
        const double *restrict b = PIECE_ROW(r + 1, 1);
        const double *restrict c = PIECE_ROW(r + 2, 2);
        const double *restrict d = PIECE_ROW(r + 3, 3);
        double cb = y[r + 1], cc = y[r + 2], cd = y[r + 3];
        ca = y[r];
        for (int64_t i = 0; i < len; i++) {
            double t = s[i] + ca * a[i];
            t += cb * b[i];
            t += cc * c[i];
            s[i] = t + cd * d[i];
        }
    }
    for (; r < k->j; r++) {
        a = PIECE_ROW(r, 0);
        ca = y[r];
        for (int64_t i = 0; i < len; i++)
            s[i] += ca * a[i];
    }
#undef PIECE_ROW
}

/* The axpy's unit: AXPY_RUN elements, piece by piece. */
#define AXPY_RUN (8 * FUSED_PIECE)

CLONED
static void axpy_run(const void *job, int64_t q, int64_t me)
{
    const struct walk *k = job;
    double s[FUSED_PIECE], buf[4 * FUSED_PIECE];
    int64_t end = (q + 1) * AXPY_RUN < k->n ? (q + 1) * AXPY_RUN : k->n;
    for (int64_t i0 = q * AXPY_RUN; i0 < end; i0 += FUSED_PIECE) {
        int64_t len = (i0 + FUSED_PIECE < end ? i0 + FUSED_PIECE : end) - i0;
        axpy_piece(k, i0, len, s, buf, 0);
        double *restrict o = k->w + i0;
        if (k->store)
            for (int64_t i = 0; i < len; i++)
                o[i] = s[i];
        else
            for (int64_t i = 0; i < len; i++)
                o[i] -= s[i];
    }
}

void fused_axpy(FUSED_SOURCE, int64_t j, int64_t n, const double *y,
                double *w, int32_t store)
{
    struct walk k = {WALK_SOURCE, j, n, 0, 0, y, w, NULL, NULL, 0, store};
    pool_split(axpy_run, &k, (n + AXPY_RUN - 1) / AXPY_RUN, POOL_MAX, j * n);
}

/* The sweep: w -= V y, then u[r] += the tile partials of v_r . w over the
 * updated w — by definition the bytes of fused_axpy followed by fused_dot,
 * in one walk that reads (or decodes) every row piece once.  Per tile of
 * the grid: zero the j x 8 lane accumulators; for each piece of the tile,
 * finish w on the piece (axpy_piece, then the subtraction), then add the
 * piece to every row's lanes; at the tile's end reduce each row's lanes by
 * the fixed tree into the tile's partials.  Pieces start a multiple of
 * FUSED_PIECE — of eight — from the tile's start, so element i joins lane
 * (i - t0) mod 8 in ascending order, as in fused_dot, and only a tile's
 * last piece has a tail.  A thread's slice: 8 j doubles of lanes, then
 * j * FUSED_PIECE more for the decoded row pieces of a compressed source. */
CLONED
static void axpy_dot_tile(const void *job, int64_t t, int64_t me)
{
    const struct walk *k = job;
    int64_t j = k->j, t0 = (k->round + t) * k->tile;
    int64_t t1 = t0 + k->tile < k->n ? t0 + k->tile : k->n;
    double s[FUSED_PIECE];
    double *lanes = k->slices + me * k->stride, *buf = lanes + 8 * j;
    for (int64_t q = 0; q < 8 * j; q++)
        lanes[q] = 0.0;
    for (int64_t i0 = t0; i0 < t1; i0 += FUSED_PIECE) {
        int64_t len = (i0 + FUSED_PIECE < t1 ? i0 + FUSED_PIECE : t1) - i0;
        axpy_piece(k, i0, len, s, buf, 1);
        double *restrict x = k->w + i0;
        for (int64_t i = 0; i < len; i++)
            x[i] -= s[i];
        for (int64_t r = 0; r < j; r++) {
            const double *restrict v = k->v_dense
                ? k->v_dense + r * k->v_ld + i0 : buf + r * FUSED_PIECE;
            double a[8];
            memcpy(a, lanes + 8 * r, sizeof a);
            int64_t i = 0;
            for (; i + 8 <= len; i += 8)
                for (int q = 0; q < 8; q++)
                    a[q] += v[i + q] * x[i + q];
            for (int q = 0; i < len; i++, q++)
                a[q] += v[i] * x[i];
            memcpy(lanes + 8 * r, a, sizeof a);
        }
    }
    double *p = k->part + t * j;
    for (int64_t r = 0; r < j; r++) {
        const double *a = lanes + 8 * r;
        p[r] = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
    }
}

void fused_axpy_dot(FUSED_SOURCE, int64_t j, int64_t n, int64_t tile,
                    const double *y, double *w, double *u, double *work,
                    int64_t threads)
{
    int64_t stride = j * (8 + (v_dense ? 0 : FUSED_PIECE));
    struct walk k = {WALK_SOURCE, j, n, tile, 0, y, w, work,
                     work + FUSED_ROUND * j, stride, 0};
    fused_rounds(axpy_dot_tile, &k, u, threads);
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

static void sell_rows(const void *job, int64_t q, int64_t me)
{
    const struct spmv *a = job;
    int64_t g = a->m, r0 = q * POOL_ROWS, r1 = r0 + POOL_ROWS < g ? r0 + POOL_ROWS : g;
    for (int64_t r = r0; r < r1; r++) {
        double acc = a->vals[r] * a->x[a->cols[r]];
        for (int64_t s = 1; s < a->width; s++)
            acc += a->vals[s * g + r] * a->x[a->cols[s * g + r]];
        a->y[a->rows[r]] = acc;
    }
}

/* One SELL-C-sigma width group: y[rows[r]] = the row's slot-ordered
 * sum (the caller zeroes y for rows no group covers). */
void sell_group_matvec(const int64_t *rows, const int64_t *cols_t,
                       const double *vals_t, int64_t width, int64_t g,
                       const double *x, double *y)
{
    struct spmv a = {rows, cols_t, vals_t, x, y, width, g, 0};
    spmv_split(sell_rows, &a, width * g);
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

/* ---- chunk-wavefront triangular sweeps --------------------------------
 * The result of a sweep is defined by the natural-order recurrence of
 * lower_unit_trisolve_numpy / upper_trisolve_numpy; the order rows are
 * visited in is free wherever they do not depend on each other.  Rows are
 * cut into chunks of SWEEP_ROWS consecutive rows; a chunk's level is 0
 * when its rows reference no other chunk, else 1 + the highest level of
 * the chunks they reference.  Chunks of one level are independent, so up
 * to SWEEP_CHUNKS of them are walked in lock-step (row q of each, then
 * row q + 1): their recurrences overlap in the pipeline where one chunk
 * alone waits a multiply, a subtraction and a divide for every row.  Rows
 * of a chunk stay in order and every row keeps its entry order, so no bit
 * depends on the geometry; both constants are picked by measurement
 * (docs/PRECONDITIONING.md). */
#define SWEEP_ROWS 256
#define SWEEP_CHUNKS 4
const int64_t prec_sweep_rows = SWEEP_ROWS;
const int64_t prec_sweep_chunks = SWEEP_CHUNKS;

/* level[c] of every chunk, forward over a strictly-lower pattern or
 * backward over a strictly-upper one (level: zeros on entry).  Returns
 * -1, or the first visited row holding an entry that is not strictly on
 * its side of the diagonal (which also bounds every index by n). */
int64_t prec_chunk_levels(const int64_t *indptr, const int64_t *indices,
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

/* The chunks [c0, c0 + g) of order, one level's lock-step group: rows
 * [lo[c], lo[c] + len[c]) and the chunk's values, read where they are
 * stored or decoded into its slice of work. */
#define SWEEP_GROUP(p, work, stride)                                      \
    int64_t lo[SWEEP_CHUNKS], len[SWEEP_CHUNKS], k0[SWEEP_CHUNKS];        \
    const double *val[SWEEP_CHUNKS];                                      \
    int64_t g = end - c0 < SWEEP_CHUNKS ? end - c0 : SWEEP_CHUNKS;        \
    int64_t longest = 0;                                                  \
    for (int64_t c = 0; c < g; c++) {                                     \
        lo[c] = order[c0 + c] * SWEEP_ROWS;                               \
        len[c] = (lo[c] + SWEEP_ROWS < n ? lo[c] + SWEEP_ROWS : n) - lo[c]; \
        if (len[c] > longest)                                             \
            longest = len[c];                                             \
        k0[c] = indptr[lo[c]];                                            \
        val[c] = SOURCE_ROW(p, 0, k0[c], indptr[lo[c] + len[c]],          \
                            (work) + c * (stride));                       \
    }

/* Forward sweep: L y = b with strictly-lower CSR L and an implicit unit
 * diagonal (the ILU(0) L factor).  order lists the chunks level by level,
 * level l being order[level_ptr[l] .. level_ptr[l + 1]); work holds
 * SWEEP_CHUNKS * stride doubles when the values are compressed (stride:
 * the most values any chunk has). */
void prec_lower_trisolve(const int64_t *indptr, const int64_t *indices,
                         SOURCE(v_), const int64_t *order,
                         const int64_t *level_ptr, int64_t nlevels,
                         const double *b, double *y, int64_t n,
                         double *work, int64_t stride)
{
    for (int64_t lev = 0; lev < nlevels; lev++) {
        int64_t end = level_ptr[lev + 1];
        for (int64_t c0 = level_ptr[lev]; c0 < end; c0 += SWEEP_CHUNKS) {
            SWEEP_GROUP(v_, work, stride)
            for (int64_t q = 0; q < longest; q++)
                for (int64_t c = 0; c < g; c++) {
                    if (q >= len[c])
                        continue;
                    int64_t i = lo[c] + q;
                    int64_t s0 = indptr[i], cnt = indptr[i + 1] - s0;
                    const double *v = val[c] + (s0 - k0[c]);
                    const int64_t *col = indices + s0;
                    double s = b[i];
                    for (int64_t k = 0; k < cnt; k++)
                        s -= v[k] * y[col[k]];
                    y[i] = s;
                }
        }
    }
}

/* Backward sweep: U y = b with strictly-upper CSR entries plus a separate
 * diagonal source (d_: its chunk slices follow the value slices in work,
 * SWEEP_ROWS doubles each). */
void prec_upper_trisolve(const int64_t *indptr, const int64_t *indices,
                         SOURCE(v_), SOURCE(d_), const int64_t *order,
                         const int64_t *level_ptr, int64_t nlevels,
                         const double *b, double *y, int64_t n,
                         double *work, int64_t stride)
{
    double *dwork = work + SWEEP_CHUNKS * stride;
    for (int64_t lev = 0; lev < nlevels; lev++) {
        int64_t end = level_ptr[lev + 1];
        for (int64_t c0 = level_ptr[lev]; c0 < end; c0 += SWEEP_CHUNKS) {
            SWEEP_GROUP(v_, work, stride)
            const double *diag[SWEEP_CHUNKS];
            for (int64_t c = 0; c < g; c++)
                diag[c] = SOURCE_ROW(d_, 0, lo[c], lo[c] + len[c],
                                     dwork + c * SWEEP_ROWS);
            for (int64_t q = 0; q < longest; q++)
                for (int64_t c = 0; c < g; c++) {
                    if (q >= len[c])
                        continue;
                    int64_t r = len[c] - 1 - q, i = lo[c] + r;
                    int64_t s0 = indptr[i], cnt = indptr[i + 1] - s0;
                    const double *v = val[c] + (s0 - k0[c]);
                    const int64_t *col = indices + s0;
                    double s = b[i];
                    for (int64_t k = 0; k < cnt; k++)
                        s -= v[k] * y[col[k]];
                    y[i] = s / diag[c][r];
                }
        }
    }
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
#: the pool's helpers.
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
            [compiler, *flags, src_path, "-o", tmp_lib],
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


class _Rows:
    """``count`` rows of ``length`` values, as the fused kernels walk them:
    the base of the two ``FUSED_SOURCE``s of ``C_SOURCE``.

    A source is made once by whoever owns the rows and walked many times,
    so it keeps what a walk needs beside its operands: the C arguments
    (:attr:`source`) and one cache-line-aligned work buffer, allocated on
    first use and sized by ``capacity`` and the engine's threads — never
    by ``n``: a round of tile partials, then one slice per thread.

    :meth:`fused_dot`, :meth:`fused_axpy` and :meth:`fused_axpy_dot` are
    the three walks of a row source of :mod:`repro.fused.kernels` — the
    only way to the C kernels, for a solve and for the self-test alike.
    Their caller has validated the operands it passes (contiguous float64
    vectors: ``w`` of at least ``n`` values, writable where written;
    ``y``, ``h``, ``u`` of at least ``j``; ``tile >= 1``); they check what
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
            # lines costs the sweep a tenth of its time
            raw = np.empty(work + 7)
            skip = -(raw.ctypes.data // 8) % 8
            self._work = raw[skip:skip + work]
            self._work_ptr = self._engine._ptr(self._work, "double *")
        return self._engine._lib, self._engine._ffi.from_buffer, self._work_ptr

    def fused_dot(self, j: int, n: int, tile: int, w, h) -> int:
        """``h[r] += v_r[:n] . w`` (``fused_dot`` in ``C_SOURCE``)."""
        engine = self._engine
        threads, held = engine.threads, engine.fused_round
        decoded = -(-min(tile, n) // 8) * 8 if self.piece else 0
        lib, ptr, work = self._walk(
            j, n, held * self.capacity + threads * decoded)
        lib.fused_dot(*self.source, j, n, tile, ptr("double *", w),
                      ptr("double *", h), work, threads)
        return held * j + threads * decoded

    def fused_axpy(self, j: int, n: int, tile: int, y, w,
                   store: bool = False) -> int:
        """``w[:n] -= sum_r y[r] v_r[:n]`` (``store``: ``w = sum``); the
        sum is per element, so the grid (``tile``) plays no part."""
        lib, ptr, _ = self._walk(j, n)
        lib.fused_axpy(*self.source, j, n, ptr("double *", y),
                       ptr("double *", w), store)
        return 0

    def fused_axpy_dot(self, j: int, n: int, tile: int, y, w, u) -> int:
        """:meth:`fused_axpy`, then ``u[r] += v_r[:n] . w``, in one walk."""
        engine = self._engine
        threads = engine.threads
        per_row = engine.fused_round + threads * (8 + self.piece)
        lib, ptr, work = self._walk(j, n, self.capacity * per_row)
        lib.fused_axpy_dot(*self.source, j, n, tile, ptr("double *", y),
                           ptr("double *", w), ptr("double *", u), work,
                           threads)
        return j * per_row


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
    level ``l`` being ``order[level_ptr[l]:level_ptr[l + 1]]``.  It is
    made once, from the pattern alone, and checked here — every index in
    bounds and strictly on its side of the diagonal — before C may walk
    it.  The values come with each call: a one-row :class:`TileTable`
    (decoded a chunk at a time into a per-call work buffer) or float64
    values read where they are stored.
    """

    __slots__ = ("_engine", "indptr", "indices", "n", "order", "level_ptr",
                 "stride", "_pattern", "_levels")

    #: sweep direction; the subclasses fix it
    upper = False

    def __init__(self, engine: "CEngine", indptr, indices) -> None:
        self._engine = engine
        self.indptr = indptr = engine._c(indptr, np.int64)
        self.indices = indices = engine._c(indices, np.int64)
        _check_csr_pattern(indptr, indices)
        self.n = n = indptr.size - 1
        rows = engine.sweep_rows
        chunks = -(-n // rows)
        level = np.zeros(chunks, dtype=np.int64)
        self._pattern = (engine._ptr(indptr, "int64_t *"),
                         engine._ptr(indices, "int64_t *"))
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
        self.level_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(level)))
        ).astype(np.int64)
        self._levels = (engine._ptr(self.order, "int64_t *"),
                        engine._ptr(self.level_ptr, "int64_t *"),
                        self.level_ptr.size - 1)
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
        work = engine._ffi.NULL
        if any(isinstance(values, TileTable) for values in (data, *udiag)):
            work = engine._ptr(
                np.empty(engine.sweep_chunks * (self.stride + engine.sweep_rows)),
                "double *",
            )
        y = np.empty(n)
        kernel(
            *self._pattern, *sources, *self._levels,
            engine._ptr(b, "double *"), engine._ptr(y, "double *"), n,
            work, self.stride,
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
        #: elements per piece of the fused axpy and sweep (C constant)
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

    def sell_group_matvec(self, rows, cols_t, vals_t, x, work, y) -> None:
        """One SELL width group; writes ``y[rows]`` in place."""
        ptr = self._ffi.from_buffer
        width, g = cols_t.shape
        self._lib.sell_group_matvec(
            ptr("int64_t *", rows), ptr("int64_t *", cols_t),
            ptr("double *", vals_t), width, g,
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
