"""Optional C-accelerated LRU kernel for :class:`repro.gpu.caches.Cache`.

The pure-Python loop in ``caches.py`` remains the reference implementation;
this module compiles the exact same set-associative LRU walk to a tiny
shared object with the system C compiler and loads it through :mod:`ctypes`.
Draw-level QuadStream batching hands the cache model reference streams of
millions of lines per call, where the interpreted loop dominates the whole
simulator — the kernel removes that floor without changing a single counter.

The accelerator is strictly optional:

* no C compiler, a failed build, or ``REPRO_NO_NATIVE=1`` in the
  environment all fall back silently to the Python loop;
* the compiled object is cached (keyed by a hash of the C source) under the
  package's ``_build`` directory when writable, else the system temp dir,
  so the one-time ``cc`` cost is paid once per machine, not per process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import shutil
import subprocess
import tempfile

import numpy as np

#: Reference semantics (mirrors ``Cache.access_line``): per set, entries are
#: kept most-recently-used first; a hit moves the line to the front and ORs
#: the dirty bit with the write flag; a miss records the line, evicts the
#: least-recently-used entry of a full set (reporting its byte address when
#: dirty) and inserts the new line at the front with dirty = write flag.
_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* write_mode: 0 = all reads, 1 = all writes, 2 = per-reference flags[].
   lines/dirty hold nsets*ways slots, MRU-first per set; sizes[nsets].
   counts[0] = hits, counts[1] = misses, counts[2] = dirty evictions. */
void lru_run(const i64 *stream, i64 n, int write_mode, const uint8_t *flags,
             i64 *lines, uint8_t *dirty, i64 *sizes,
             i64 nsets, i64 ways, i64 line_bytes,
             i64 *miss_lines, i64 *evictions, i64 *counts)
{
    i64 hits = 0, nm = 0, ne = 0;
    for (i64 k = 0; k < n; k++) {
        i64 line = stream[k];
        uint8_t wr = write_mode == 2 ? flags[k] : (uint8_t)write_mode;
        i64 s = nsets > 1 ? line % nsets : 0;
        i64 *L = lines + s * ways;
        uint8_t *D = dirty + s * ways;
        i64 size = sizes[s];
        if (size > 0 && L[0] == line) {  /* MRU hit: the memmoves are no-ops */
            hits++;
            D[0] |= wr;
            continue;
        }
        i64 pos = -1;
        for (i64 i = 0; i < size; i++) {
            if (L[i] == line) { pos = i; break; }
        }
        if (pos >= 0) {
            uint8_t d = D[pos] | wr;
            hits++;
            memmove(L + 1, L, pos * sizeof(i64));
            memmove(D + 1, D, pos * sizeof(uint8_t));
            L[0] = line;
            D[0] = d;
        } else {
            miss_lines[nm++] = line;
            if (size >= ways) {
                if (D[size - 1]) evictions[ne++] = L[size - 1] * line_bytes;
                size--;
            }
            memmove(L + 1, L, size * sizeof(i64));
            memmove(D + 1, D, size * sizeof(uint8_t));
            L[0] = line;
            D[0] = wr;
            sizes[s] = size + 1;
        }
    }
    counts[0] = hits;
    counts[1] = nm;
    counts[2] = ne;
}

/* Spread the low 16 bits of x into the even bit slots (Morton helper;
   mirrors repro.util.morton's lookup-table construction). */
static uint64_t part16(uint64_t x)
{
    x &= 0xFFFFu;
    x = (x | (x << 8)) & 0x00FF00FFu;
    x = (x | (x << 4)) & 0x0F0F0F0Fu;
    x = (x | (x << 2)) & 0x33333333u;
    x = (x | (x << 1)) & 0x55555555u;
    return x;
}

/* One set-associative LRU access (Cache.access_line with a fixed write
   flag), shared by the fused stage kernels.  Returns 1 on hit.  On a miss
   the LRU victim of a full set is dropped; *evicted is set to its byte
   address when it was dirty, else left untouched. */
static int lru_touch(i64 line, int wr, i64 *lines, uint8_t *dirty,
                     i64 *sizes, i64 nsets, i64 ways, i64 line_bytes,
                     i64 *evicted)
{
    i64 s = nsets > 1 ? line % nsets : 0;
    i64 *L = lines + s * ways;
    uint8_t *D = dirty + s * ways;
    i64 size = sizes[s];
    if (size > 0 && L[0] == line) {      /* MRU hit: the memmoves are no-ops */
        D[0] |= (uint8_t)wr;
        return 1;
    }
    for (i64 i = 0; i < size; i++) {
        if (L[i] == line) {
            uint8_t d = D[i] | (uint8_t)wr;
            memmove(L + 1, L, i * sizeof(i64));
            memmove(D + 1, D, i * sizeof(uint8_t));
            L[0] = line;
            D[0] = d;
            return 1;
        }
    }
    if (size >= ways) {
        if (D[size - 1]) *evicted = L[size - 1] * line_bytes;
        size--;
    }
    memmove(L + 1, L, size * sizeof(i64));
    memmove(D + 1, D, size * sizeof(uint8_t));
    L[0] = line;
    D[0] = (uint8_t)wr;
    sizes[s] = size + 1;
    return 0;
}

/* Exact-LRU mirror for the texture walk below.  The reference model keeps
   each set's lines MRU-first (Cache._sets; exported MRU-first per set) and
   pays O(ways) per touch.  The mirror threads an intrusive doubly linked
   recency list through each set's way slots (head = MRU, next runs toward
   the LRU tail) and finds a line's slot through an open-addressing hash
   (Fibonacci hashing, linear probing, backshift deletion).  A hit unlinks
   its slot and relinks it at the head; a miss fills a free slot or, in a
   full set, reuses the tail slot — the reference's evict-the-tail — so
   every access is O(1).  Walking each list from its head rebuilds the
   reference's MRU-first layout bit for bit.  All state is one heap block
   sized from the geometry, so any cache shape runs.  Texture streams
   never write: dirty bits stay clear and evictions never write back. */
typedef struct {
    i64 *line, *prev, *next;   /* per way slot, nsets*ways */
    i64 *head, *tail;          /* per set MRU / LRU slot, -1 when empty */
    i64 *sizes;                /* the caller's per-set fill counts, in place */
    i64 *hkey, *hval;          /* line -> slot, hkey -1 = empty */
    i64 hmask, nsets, ways, smask;
    int hshift;
    i64 *mem;
} tc_lru;

static inline i64 tc_hash(const tc_lru *C, i64 line)
{
    return (i64)(((uint64_t)line * 0x9E3779B97F4A7C15ull) >> C->hshift);
}

/* Set index of a (nonnegative) line: a mask for power-of-two set counts. */
static inline i64 tc_set(const tc_lru *C, i64 line)
{
    if (C->smask >= 0) return line & C->smask;
    return line % C->nsets;
}

static inline void tc_unlink(tc_lru *C, i64 s, i64 slot)
{
    i64 p = C->prev[slot], nx = C->next[slot];
    if (p >= 0) C->next[p] = nx; else C->head[s] = nx;
    if (nx >= 0) C->prev[nx] = p; else C->tail[s] = p;
}

static inline void tc_push(tc_lru *C, i64 s, i64 slot)
{
    i64 hd = C->head[s];
    C->prev[slot] = -1;
    C->next[slot] = hd;
    if (hd >= 0) C->prev[hd] = slot; else C->tail[s] = slot;
    C->head[s] = slot;
}

static inline void tc_hput(tc_lru *C, i64 line, i64 slot)
{
    i64 h = tc_hash(C, line);
    while (C->hkey[h] != -1) h = (h + 1) & C->hmask;
    C->hkey[h] = line;
    C->hval[h] = slot;
}

/* Import MRU-first lines[]/sizes[]; returns -1 when out of memory. */
static int tc_init(tc_lru *C, const i64 *lines, i64 *sizes,
                   i64 nsets, i64 ways)
{
    i64 slots = nsets * ways, hcap = 64;
    int bits = 6;
    while (hcap < 4 * slots) { hcap <<= 1; bits++; }
    C->mem = malloc((size_t)(3 * slots + 2 * nsets + 2 * hcap) * sizeof(i64));
    if (C->mem == NULL) return -1;
    C->line = C->mem;
    C->prev = C->line + slots;
    C->next = C->prev + slots;
    C->head = C->next + slots;
    C->tail = C->head + nsets;
    C->hkey = C->tail + nsets;
    C->hval = C->hkey + hcap;
    C->sizes = sizes;
    C->hmask = hcap - 1;
    C->hshift = 64 - bits;
    C->nsets = nsets;
    C->ways = ways;
    C->smask = (nsets & (nsets - 1)) == 0 ? nsets - 1 : -1;
    for (i64 h = 0; h < hcap; h++) C->hkey[h] = -1;
    for (i64 s = 0; s < nsets; s++) {
        i64 base = s * ways, size = sizes[s];
        C->head[s] = size > 0 ? base : -1;
        C->tail[s] = size > 0 ? base + size - 1 : -1;
        for (i64 i = 0; i < size; i++) {
            i64 slot = base + i;
            C->line[slot] = lines[slot];
            C->prev[slot] = i > 0 ? slot - 1 : -1;
            C->next[slot] = i + 1 < size ? slot + 1 : -1;
            tc_hput(C, lines[slot], slot);
        }
    }
    return 0;
}

static void tc_hdel(tc_lru *C, i64 line)
{
    i64 mask = C->hmask;
    i64 pos = tc_hash(C, line);
    while (C->hkey[pos] != line) pos = (pos + 1) & mask;
    i64 hole = pos;
    i64 j = (pos + 1) & mask;
    while (C->hkey[j] != -1) {          /* backshift deletion */
        i64 home = tc_hash(C, C->hkey[j]);
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            C->hkey[hole] = C->hkey[j];
            C->hval[hole] = C->hval[j];
            hole = j;
        }
        j = (j + 1) & mask;
    }
    C->hkey[hole] = -1;
}

/* One read access (Cache.access_line with write=False); returns 1 on hit. */
static inline int tc_access(tc_lru *C, i64 line)
{
    i64 s = tc_set(C, line);
    i64 hd = C->head[s];
    if (hd >= 0 && C->line[hd] == line) return 1;    /* MRU hit: no relink */
    i64 h = tc_hash(C, line);
    for (;;) {
        i64 key = C->hkey[h];
        if (key == line) {
            i64 slot = C->hval[h];
            tc_unlink(C, s, slot);
            tc_push(C, s, slot);
            return 1;
        }
        if (key == -1) break;
        h = (h + 1) & C->hmask;
    }
    i64 slot;
    if (C->sizes[s] < C->ways) {
        slot = s * C->ways + C->sizes[s]++;
        C->hkey[h] = line;              /* h is the probe's empty slot */
        C->hval[h] = slot;
    } else {
        slot = C->tail[s];
        tc_unlink(C, s, slot);
        tc_hdel(C, C->line[slot]);
        tc_hput(C, line, slot);         /* the deletion may move the hole */
    }
    C->line[slot] = line;
    tc_push(C, s, slot);
    return 0;
}

/* Write the mirror back as the reference's MRU-first per-set layout. */
static void tc_export(tc_lru *C, i64 *lines)
{
    for (i64 s = 0; s < C->nsets; s++) {
        i64 i = s * C->ways;
        for (i64 slot = C->head[s]; slot >= 0; slot = C->next[slot])
            lines[i++] = C->line[slot];
    }
    free(C->mem);
    C->mem = NULL;
}

/* floor(x) as an integer, without a libm call: exact for every x whose
   floor fits in an i64 (the range the (i64)floor(x) cast covers). */
static inline i64 tc_floor(double x)
{
    i64 t = (i64)x;
    return (double)t > x ? t - 1 : t;
}

/* part16 by table: tc_spread[b] holds byte b's bits in the even bit
   slots.  Filled once when the library is loaded. */
static uint32_t tc_spread[256];

__attribute__((constructor)) static void tc_spread_init(void)
{
    for (int b = 0; b < 256; b++)
        tc_spread[b] = (uint32_t)part16((uint64_t)b);
}

static inline uint64_t tc_part16(uint64_t x)
{
    return tc_spread[x & 255] | ((uint64_t)tc_spread[(x >> 8) & 255] << 16);
}

/* Per mip level addressing constants, built once per call and indexed by
   level = min(mip0 + step, max_level).  inv (1/pitch) and half
   (0.5*pitch; the - corner negates it, which is exact) feed the model's
   float expression floor((pos + corner*pitch) / pitch) unchanged — pitch
   is a power of two, so multiplying by its reciprocal rounds exactly like
   dividing.  wmask/hmask are extent-1 for power-of-two extents (the wrap
   is then a mask, correct for negative texels in two's complement), else
   -1 for a true modulo.  off folds base_address + the mip's offset. */
typedef struct {
    double inv, half;
    i64 w, h, wmask, hmask, off;
} tc_level;

static inline i64 tc_wrap(i64 t, i64 mask, i64 extent)
{
    if (mask >= 0) return t & mask;
    t %= extent;
    return t < 0 ? t + extent : t;
}

/* Texture-request pass: the whole of TextureUnit._simulate_cache —
   coverage compaction, the request and bilinear tallies, probe-address
   generation, the L0 LRU walk, and the L1 walk of the L0 miss stream —
   in one call with no materialized address stream.

   Inputs are per lane (u, v: base-mip texel coordinates; covered: 0/1
   per lane, NULL = every lane) and per quad (lod, mip0 = floor(lod),
   ratio = anisotropy ratio, du/dv = the anisotropy major axis); lane i
   belongs to quad i/4.  filter: 0 bilinear, 1 trilinear, 2 anisotropic.
   A covered lane issues probes = (anisotropic ? ratio : 1) probes at
   mips = 2 levels when the filter is trilinear or anisotropic, lod > 0
   and mip0 < max_level, else 1; requests and bilinears (probes*mips)
   tally over covered lanes.

   Addresses are emitted in the model's exact order: for each probe index
   p, for each mip step, the -0.5 footprint corner of every covered lane
   taking that (p, step) in ascending lane order, then the +0.5 corner.
   Per sample: t = (p + 0.5)/probes - 0.5 along the major axis, position
   u + t*du; level = min(mip0 + step, max_level) indexes the tc_level
   table; texels wrap at the mip extents; the 4x4 block index is
   Morton-coded.  All float arithmetic is plain IEEE double in the numpy
   evaluation order (the build must not enable contraction or fast-math),
   so addresses are bit-identical.  Per (probe, step) the lanes' two
   corner lines are generated into two buffers first, then walked in
   order — address arithmetic and the branchy LRU walk run as separate
   tight loops.

   The collapse passes Cache.access_stream applies (duplicate-run and
   period-2 alternation folding) are exact no-ops on hit/miss totals and
   LRU state, so the raw walk reproduces their counters; it skips a line
   equal to the previous one itself (that line is its set's MRU: a hit
   that changes nothing).  Interleaving each L0 miss's L1 access into the
   walk is equally neutral because the two caches share no state.  Both
   caches run on the tc_lru mirror above, imported from and exported back
   to the callers' MRU-first arrays.

   counts: requests, bilinears, l0 hits, l0 misses, l1 hits, l1 misses.
   Returns 0; -1 when a covered lane's quad has mip0 outside
   [0, max_level] or a ratio that is not a probe count >= 1 (a non-finite
   footprint), -2 when out of memory; either leaves the cache arrays
   untouched. */
int texcache(const double *u, const double *v, const uint8_t *covered,
             i64 n,
             const double *lod, const i64 *mip0, const double *ratio,
             const double *du, const double *dv,
             int filter, i64 max_level, i64 width, i64 height,
             const i64 *mip_offsets, i64 n_offsets,
             i64 base_address, i64 block_bytes,
             i64 *l0_lines, i64 *l0_sizes, i64 l0_nsets, i64 l0_ways,
             i64 *l1_lines, i64 *l1_sizes, i64 l1_nsets, i64 l1_ways,
             i64 l1_line_bytes,
             i64 *counts)
{
    int trilinear = filter != 0, aniso = filter == 2;
    /* Validate, count the covered lanes, tally, find the probe maximum. */
    i64 ncov = 0, bilinears = 0, max_probes = 0, nbucket = 0;
    for (i64 i = 0; i < n; i++) {
        if (covered != NULL && !covered[i]) continue;
        i64 q = i >> 2;
        double r = aniso ? ratio[q] : 1.0;
        if (mip0[q] < 0 || mip0[q] > max_level
            || !(r >= 1.0 && r <= 2147483647.0))
            return -1;
        i64 pr = (i64)r;
        i64 mc = trilinear && lod[q] > 0 && mip0[q] < max_level ? 2 : 1;
        ncov++;
        bilinears += pr * mc;
        nbucket += pr - 1;
        if (pr > max_probes) max_probes = pr;
    }
    counts[0] = ncov;
    counts[1] = bilinears;
    counts[2] = counts[3] = counts[4] = counts[5] = 0;
    if (ncov == 0) return 0;

    /* Scratch: the level table; bucket offsets; per covered lane its lane
       id and probe count; bucket[] listing the covered lanes that take
       probe p >= 1 (probe 0 is every covered lane); and per bucket
       position the sample position, level rows and two corner lines. */
    i64 levels = max_level + 1;
    size_t bytes = (size_t)levels * sizeof(tc_level)
                 + (size_t)(2 * max_probes + 1) * sizeof(i64)
                 + (size_t)(2 * ncov + nbucket) * sizeof(i64)
                 + (size_t)(2 * ncov) * sizeof(double)
                 + (size_t)(4 * ncov) * sizeof(i64);
    char *scratch = malloc(bytes);
    if (scratch == NULL) return -2;
    tc_level *tab = (tc_level *)scratch;
    i64 *boff = (i64 *)(tab + levels);          /* max_probes + 1 */
    i64 *cur = boff + max_probes + 1;           /* max_probes */
    i64 *lane = cur + max_probes;               /* ncov */
    i64 *lprobes = lane + ncov;                 /* ncov */
    i64 *bucket = lprobes + ncov;               /* nbucket */
    double *pu = (double *)(bucket + nbucket);  /* ncov */
    double *pv = pu + ncov;                     /* ncov */
    i64 *row0 = (i64 *)(pv + ncov);             /* ncov: step-0 level */
    i64 *row1 = row0 + ncov;                    /* ncov: step-1 level or -1 */
    i64 *la = row1 + ncov;                      /* ncov: -0.5 corner lines */
    i64 *lb = la + ncov;                        /* ncov: +0.5 corner lines */

    tc_lru C0, C1;
    if (tc_init(&C0, l0_lines, l0_sizes, l0_nsets, l0_ways) != 0) {
        free(scratch);
        return -2;
    }
    if (tc_init(&C1, l1_lines, l1_sizes, l1_nsets, l1_ways) != 0) {
        free(C0.mem);
        free(scratch);
        return -2;
    }

    for (i64 lvl = 0; lvl < levels; lvl++) {
        i64 cl = lvl > 30 ? 30 : lvl;
        double pitch = ldexp(1.0, (int)lvl);
        i64 w = width >> cl, h = height >> cl;
        if (w < 1) w = 1;
        if (h < 1) h = 1;
        i64 oi = lvl < n_offsets - 1 ? lvl : n_offsets - 1;
        tab[lvl].inv = 1.0 / pitch;
        tab[lvl].half = 0.5 * pitch;
        tab[lvl].w = w;
        tab[lvl].h = h;
        tab[lvl].wmask = (w & (w - 1)) == 0 ? w - 1 : -1;
        tab[lvl].hmask = (h & (h - 1)) == 0 ? h - 1 : -1;
        tab[lvl].off = base_address + mip_offsets[oi];
    }

    /* Compact the covered lanes and bucket them per probe index p >= 1
       (ascending lane order within each bucket). */
    for (i64 p = 0; p <= max_probes; p++) boff[p] = 0;
    i64 k = 0;
    for (i64 i = 0; i < n; i++) {
        if (covered != NULL && !covered[i]) continue;
        lane[k] = i;
        lprobes[k] = aniso ? (i64)ratio[i >> 2] : 1;
        for (i64 p = 1; p < lprobes[k]; p++) boff[p + 1]++;
        k++;
    }
    for (i64 p = 1; p < max_probes; p++) boff[p + 1] += boff[p];
    for (i64 p = 0; p < max_probes; p++) cur[p] = boff[p];
    for (k = 0; k < ncov; k++)
        for (i64 p = 1; p < lprobes[k]; p++) bucket[cur[p]++] = k;

    /* addr / block_bytes and the L1 line are shifts for power-of-two
       sizes (addresses are nonnegative, so the shift is the quotient). */
    int bshift = -1, l1shift = -1;
    if (block_bytes > 0 && (block_bytes & (block_bytes - 1)) == 0)
        for (bshift = 0; (i64)1 << bshift != block_bytes; bshift++) {}
    if (l1_line_bytes > 0 && (l1_line_bytes & (l1_line_bytes - 1)) == 0)
        for (l1shift = 0; (i64)1 << l1shift != l1_line_bytes; l1shift++) {}

    i64 l0h = 0, l0m = 0, l1h = 0, l1m = 0, last = -1;
    for (i64 p = 0; p < max_probes; p++) {
        const i64 *B = p == 0 ? NULL : bucket + boff[p];
        i64 bn = p == 0 ? ncov : boff[p + 1] - boff[p];
        /* The sample position and level rows depend on (probe, lane)
           only — computed once per probe, not per (step, corner). */
        for (i64 j = 0; j < bn; j++) {
            i64 c = B == NULL ? j : B[j];
            i64 i = lane[c], q = i >> 2;
            double t = ((double)p + 0.5) / (double)lprobes[c] - 0.5;
            pu[j] = u[i] + t * du[q];
            pv[j] = v[i] + t * dv[q];
            i64 m0 = mip0[q];
            row0[j] = m0;
            row1[j] = trilinear && lod[q] > 0 && m0 < max_level ? m0 + 1 : -1;
        }
        for (int step = 0; step < 2; step++) {
            const i64 *row = step ? row1 : row0;
            i64 m = 0;
            for (i64 j = 0; j < bn; j++) {
                if (row[j] < 0) continue;
                const tc_level *E = tab + row[j];
                double x = pu[j], y = pv[j], hf = E->half, inv = E->inv;
                i64 tx0 = tc_wrap(tc_floor((x - hf) * inv), E->wmask, E->w);
                i64 ty0 = tc_wrap(tc_floor((y - hf) * inv), E->hmask, E->h);
                i64 tx1 = tc_wrap(tc_floor((x + hf) * inv), E->wmask, E->w);
                i64 ty1 = tc_wrap(tc_floor((y + hf) * inv), E->hmask, E->h);
                uint64_t m0 = tc_part16((uint64_t)(tx0 >> 2))
                            | (tc_part16((uint64_t)(ty0 >> 2)) << 1);
                uint64_t m1 = tc_part16((uint64_t)(tx1 >> 2))
                            | (tc_part16((uint64_t)(ty1 >> 2)) << 1);
                i64 a0 = E->off + (i64)m0 * block_bytes;
                i64 a1 = E->off + (i64)m1 * block_bytes;
                la[m] = bshift >= 0 ? a0 >> bshift : a0 / block_bytes;
                lb[m] = bshift >= 0 ? a1 >> bshift : a1 / block_bytes;
                m++;
            }
            for (int corner = 0; corner < 2; corner++) {
                const i64 *L = corner ? lb : la;
                for (i64 j = 0; j < m; j++) {
                    i64 line = L[j];
                    if (line == last) { l0h++; continue; }
                    last = line;
                    if (tc_access(&C0, line)) { l0h++; continue; }
                    l0m++;
                    i64 byte = line * block_bytes;
                    i64 l1_line = l1shift >= 0 ? byte >> l1shift
                                               : byte / l1_line_bytes;
                    if (tc_access(&C1, l1_line)) l1h++;
                    else l1m++;
                }
            }
        }
    }
    free(scratch);
    tc_export(&C0, l0_lines);
    tc_export(&C1, l1_lines);
    counts[2] = l0h;
    counts[3] = l0m;
    counts[4] = l1h;
    counts[5] = l1m;
    return 0;
}

/* Edge evaluation + coverage for candidate quads (the hot first half of
   _rasterize_tri_range).  Pixel centers are 2*cq + {0,1} + 0.5; an edge
   covers a pixel when e > 0, or e == 0 on a top-left edge.  Float order
   matches numpy: e = ((a*px) + (b*py)) + c, doubles, no contraction.
   ea/eb/ec are (T, 3) row-major, etl likewise (bytes); es is (3, n, 4),
   covered (n, 4). */
void raster_edges(const i64 *cqx, const i64 *cqy, const i64 *tri, i64 n,
                  const double *ea, const double *eb, const double *ec,
                  const uint8_t *etl,
                  double *es, uint8_t *covered)
{
    static const i64 DX[4] = {0, 1, 0, 1};
    static const i64 DY[4] = {0, 0, 1, 1};
    for (i64 i = 0; i < n; i++) {
        i64 t = tri[i];
        double px[4], py[4];
        for (int j = 0; j < 4; j++) {
            px[j] = (double)(cqx[i] * 2 + DX[j]) + 0.5;
            py[j] = (double)(cqy[i] * 2 + DY[j]) + 0.5;
        }
        uint8_t cov[4] = {1, 1, 1, 1};
        for (int k = 0; k < 3; k++) {
            double a = ea[t * 3 + k];
            double b = eb[t * 3 + k];
            double cc = ec[t * 3 + k];
            uint8_t tl = etl[t * 3 + k];
            double *ek = es + (k * n + i) * 4;
            for (int j = 0; j < 4; j++) {
                double e = (a * px[j] + b * py[j]) + cc;
                ek[j] = e;
                uint8_t inside = (e > 0.0) || (tl && e == 0.0);
                cov[j] &= inside;
            }
        }
        for (int j = 0; j < 4; j++) covered[i * 4 + j] = cov[j];
    }
}

/* Barycentric + perspective-correct attribute interpolation for the kept
   quads (the second half of _rasterize_tri_range).  Per kept quad i
   (candidate row keep_idx[i], triangle tk[i]) and lane j:
   l_k = e_k * inv_area; depth = sum(l*z) clipped to [0, 1] (numpy clip
   keeps -0.0 and NaN: only d < 0 / d > 1 reassign); 1/w interpolates
   linearly with a 1e-12 floor; u, v and the 4 color channels interpolate
   as (l*attr)*w sums over one_w — every product and sum in numpy's
   association order, plain IEEE double, no contraction. */
void raster_interp(const double *es, i64 n_cand,
                   const i64 *keep_idx, const i64 *tk, i64 nk,
                   const double *inv_area,
                   const double *zs, const double *ws,
                   const double *uvs, const double *cols,
                   double *depth, double *uv, double *col)
{
    const double *e0 = es, *e1 = es + n_cand * 4, *e2 = es + 2 * n_cand * 4;
    for (i64 i = 0; i < nk; i++) {
        i64 ci = keep_idx[i];
        i64 t = tk[i];
        double ia = inv_area[t];
        double z0 = zs[t * 3], z1 = zs[t * 3 + 1], z2 = zs[t * 3 + 2];
        double w0 = ws[t * 3], w1 = ws[t * 3 + 1], w2 = ws[t * 3 + 2];
        const double *uv0 = uvs + t * 6, *uv1 = uv0 + 2, *uv2 = uv0 + 4;
        const double *c0 = cols + t * 12, *c1 = c0 + 4, *c2 = c0 + 8;
        for (int j = 0; j < 4; j++) {
            double l0 = e0[ci * 4 + j] * ia;
            double l1 = e1[ci * 4 + j] * ia;
            double l2 = e2[ci * 4 + j] * ia;
            double d = (l0 * z0 + l1 * z1) + l2 * z2;
            if (d < 0.0) d = 0.0; else if (d > 1.0) d = 1.0;
            depth[i * 4 + j] = d;
            double ow = (l0 * w0 + l1 * w1) + l2 * w2;
            if (ow == 0.0) ow = 1e-12;
            double nu = ((l0 * uv0[0]) * w0 + (l1 * uv1[0]) * w1)
                      + (l2 * uv2[0]) * w2;
            double nv = ((l0 * uv0[1]) * w0 + (l1 * uv1[1]) * w1)
                      + (l2 * uv2[1]) * w2;
            uv[(i * 4 + j) * 2] = nu / ow;
            uv[(i * 4 + j) * 2 + 1] = nv / ow;
            for (int ch = 0; ch < 4; ch++) {
                double nc = ((l0 * c0[ch]) * w0 + (l1 * c1[ch]) * w1)
                          + (l2 * c2[ch]) * w2;
                col[(i * 4 + j) * 4 + ch] = nc / ow;
            }
        }
    }
}

/* Hierarchical-Z refresh (Framebuffer.update_hz): per listed block,
   recompute the max and min of its z tile.  NaN is sticky exactly as in
   numpy's max/min reductions (v != v admits a NaN into the running
   extreme, after which no comparison displaces it). */
void hz_update(const double *z, i64 zw, i64 block,
               const i64 *bx, const i64 *by, i64 n,
               double *hz_max, double *hz_min, i64 bw)
{
    for (i64 k = 0; k < n; k++) {
        const double *base = z + by[k] * block * zw + bx[k] * block;
        double mx = base[0], mn = base[0];
        for (i64 r = 0; r < block; r++) {
            const double *row = base + r * zw;
            for (i64 c = 0; c < block; c++) {
                double v = row[c];
                if (v > mx || v != v) mx = v;
                if (v < mn || v != v) mn = v;
            }
        }
        hz_max[by[k] * bw + bx[k]] = mx;
        hz_min[by[k] * bw + bx[k]] = mn;
    }
}

/* Color-block uniformity probe (Framebuffer.color_blocks_uniform): a block
   compresses when every pixel, clipped to [0, 1], sits within half an
   8-bit LSB of the clipped corner pixel.  The clip keeps -0.0 and NaN
   like numpy's, and the !(d < t) test rejects NaN differences exactly as
   numpy's max-then-compare does. */
void blocks_uniform(const double *color, i64 cw, i64 block,
                    const i64 *bx, const i64 *by, i64 n, uint8_t *out)
{
    const double thresh = 0.5 / 255.0;
    for (i64 k = 0; k < n; k++) {
        const double *base = color + (by[k] * block * cw + bx[k] * block) * 4;
        double c0[4];
        for (int ch = 0; ch < 4; ch++) {
            double v = base[ch];
            if (v < 0.0) v = 0.0; else if (v > 1.0) v = 1.0;
            c0[ch] = v;
        }
        uint8_t uni = 1;
        for (i64 r = 0; r < block && uni; r++) {
            const double *row = base + r * cw * 4;
            for (i64 c = 0; c < block * 4; c++) {
                double v = row[c];
                if (v < 0.0) v = 0.0; else if (v > 1.0) v = 1.0;
                double d = fabs(v - c0[c & 3]);
                if (!(d < thresh)) { uni = 0; break; }
            }
        }
        out[k] = uni;
    }
}

/* Bilinear texel fetch at one mip level (TextureUnit._bilinear inner
   loop).  Weights and accumulation follow numpy's evaluation order and
   dtype promotion exactly: texels promote to double, products associate
   as (((c*gx)*gy)), the sum left-to-right, and the final store narrows
   to float with round-to-nearest — colors are bit-identical. */
void bilinear(const float *mip, i64 h, i64 w, i64 nc,
              const double *u, const double *v, i64 n,
              i64 level, float *out)
{
    double scale = ldexp(1.0, (int)level);
    for (i64 i = 0; i < n; i++) {
        double mu = u[i] / scale - 0.5;
        double mv = v[i] / scale - 0.5;
        double x0 = floor(mu), y0 = floor(mv);
        double fx = mu - x0, fy = mv - y0;
        double gx = 1.0 - fx, gy = 1.0 - fy;
        i64 xi = (i64)x0, yi = (i64)y0;
        i64 x0w = xi % w; if (x0w < 0) x0w += w;
        i64 x1w = (xi + 1) % w; if (x1w < 0) x1w += w;
        i64 y0w = yi % h; if (y0w < 0) y0w += h;
        i64 y1w = (yi + 1) % h; if (y1w < 0) y1w += h;
        const float *p00 = mip + (y0w * w + x0w) * nc;
        const float *p10 = mip + (y0w * w + x1w) * nc;
        const float *p01 = mip + (y1w * w + x0w) * nc;
        const float *p11 = mip + (y1w * w + x1w) * nc;
        for (i64 ch = 0; ch < nc; ch++) {
            double a = ((double)p00[ch] * gx) * gy;
            double b = ((double)p10[ch] * fx) * gy;
            double cc = ((double)p01[ch] * gx) * fy;
            double d = ((double)p11[ch] * fx) * fy;
            out[i * nc + ch] = (float)(((a + b) + cc) + d);
        }
    }
}

/* Multi-level bilinear fetch: TextureUnit._bilinear's per-unique-level
   loop in one pass over a flattened mip chain.  flat holds every RGBA
   float32 mip concatenated; offs[l]/hs[l]/ws[l] give mip l's texel offset
   and extents.  Each lane's result is the bilinear kernel above's, bit
   for bit (lanes are independent, so fusing the levels changes nothing):
   u / 2^level equals u * 2^-level exactly (both are the correctly
   rounded value of the same real; 2^-level is built from its exponent
   bits, a normal double for any level a mip chain can have), tc_floor
   is floor, and a
   power-of-two extent wraps with a mask exactly like the modulo. */
void bilinear_levels(const float *flat, const i64 *offs,
                     const i64 *hs, const i64 *ws, i64 nlevels,
                     const double *u, const double *v,
                     const i64 *mip0, i64 n, float *out)
{
    for (i64 i = 0; i < n; i++) {
        i64 level = mip0[i];
        if (level < 0) level = 0;
        if (level >= nlevels) level = nlevels - 1;
        const float *mip = flat + offs[level] * 4;
        i64 h = hs[level], w = ws[level];
        union { uint64_t bits; double d; } inv = {(uint64_t)(1023 - level) << 52};
        double mu = u[i] * inv.d - 0.5;
        double mv = v[i] * inv.d - 0.5;
        i64 xi = tc_floor(mu), yi = tc_floor(mv);
        double fx = mu - (double)xi, fy = mv - (double)yi;
        double gx = 1.0 - fx, gy = 1.0 - fy;
        i64 wm = (w & (w - 1)) == 0 ? w - 1 : -1;
        i64 hm = (h & (h - 1)) == 0 ? h - 1 : -1;
        i64 x0w = tc_wrap(xi, wm, w), x1w = tc_wrap(xi + 1, wm, w);
        i64 y0w = tc_wrap(yi, hm, h), y1w = tc_wrap(yi + 1, hm, h);
        const float *p00 = mip + (y0w * w + x0w) * 4;
        const float *p10 = mip + (y0w * w + x1w) * 4;
        const float *p01 = mip + (y1w * w + x0w) * 4;
        const float *p11 = mip + (y1w * w + x1w) * 4;
        for (i64 ch = 0; ch < 4; ch++) {
            double a = ((double)p00[ch] * gx) * gy;
            double b = ((double)p10[ch] * fx) * gy;
            double cc = ((double)p01[ch] * gx) * fy;
            double d = ((double)p11[ch] * fx) * fy;
            out[i * 4 + ch] = (float)(((a + b) + cc) + d);
        }
    }
}

/* Fused color stage over a shaded stream's per-triangle groups:
   ColorStage.process called once per group, in one pass.  Per group, in
   order: skip entirely when no lane is live (process's write_mask.any()
   gate — no blending, no accounting); blend live lanes into the color
   plane in flattened lane order (replace = last write wins; add =
   accumulate all, then clip touched pixels — the clip keeps -0.0 and NaN
   like np.clip; modulate = sequential multiply, no clip; alpha =
   sequential a*src + (1-a)*dst per lane); then run every quad of the
   group through the color cache (write=true).  Miss fill bytes read the
   block state inline — states mutate only at group end, so this matches
   the batched path's read-after-walk.  Dirty evictions are deferred to
   the group end (an evicted line can re-miss within the same group and
   must still see the pre-group state), then each one probes block
   uniformity from the settled color plane, adds half or full line bytes,
   and sets the block state, in eviction order.  escratch is caller
   scratch of at least nquads entries.  xs/ys lane 0 of a quad is exactly
   (2*qx, 2*qy), which the block coordinates derive from.
   counts: accesses, hits, misses, read bytes, write bytes. */
void colorpass(const i64 *xs, const i64 *ys, const double *colors,
               const uint8_t *live, i64 nquads,
               const i64 *starts, const i64 *ends, i64 ngroups,
               i64 blend_mode,
               double *fbcolor, i64 cw,
               uint8_t *block_state, i64 block, i64 blocks_x,
               i64 *c_lines, uint8_t *c_dirty, i64 *c_sizes,
               i64 nsets, i64 ways, i64 line_bytes,
               i64 compression, i64 fast_clear,
               i64 *escratch, i64 *counts)
{
    const double thresh = 0.5 / 255.0;
    i64 acc = 0, hits = 0, misses = 0, rbytes = 0, wbytes = 0;
    for (i64 g = 0; g < ngroups; g++) {
        i64 s = starts[g], e = ends[g];
        int any = 0;
        for (i64 q = s; q < e && !any; q++)
            for (int l = 0; l < 4; l++)
                if (live[q * 4 + l]) { any = 1; break; }
        if (!any) continue;
        if (blend_mode == 0) {           /* replace */
            for (i64 q = s; q < e; q++)
                for (int l = 0; l < 4; l++) {
                    if (!live[q * 4 + l]) continue;
                    double *dst = fbcolor
                        + (ys[q * 4 + l] * cw + xs[q * 4 + l]) * 4;
                    const double *src = colors + (q * 4 + l) * 4;
                    for (int ch = 0; ch < 4; ch++) dst[ch] = src[ch];
                }
        } else if (blend_mode == 1) {    /* add: accumulate, then clip */
            for (i64 q = s; q < e; q++)
                for (int l = 0; l < 4; l++) {
                    if (!live[q * 4 + l]) continue;
                    double *dst = fbcolor
                        + (ys[q * 4 + l] * cw + xs[q * 4 + l]) * 4;
                    const double *src = colors + (q * 4 + l) * 4;
                    for (int ch = 0; ch < 4; ch++)
                        dst[ch] = dst[ch] + src[ch];
                }
            for (i64 q = s; q < e; q++)
                for (int l = 0; l < 4; l++) {
                    if (!live[q * 4 + l]) continue;
                    double *dst = fbcolor
                        + (ys[q * 4 + l] * cw + xs[q * 4 + l]) * 4;
                    for (int ch = 0; ch < 4; ch++) {
                        double vv = dst[ch];
                        if (vv < 0.0) vv = 0.0;
                        else if (vv > 1.0) vv = 1.0;
                        dst[ch] = vv;
                    }
                }
        } else if (blend_mode == 2) {    /* modulate */
            for (i64 q = s; q < e; q++)
                for (int l = 0; l < 4; l++) {
                    if (!live[q * 4 + l]) continue;
                    double *dst = fbcolor
                        + (ys[q * 4 + l] * cw + xs[q * 4 + l]) * 4;
                    const double *src = colors + (q * 4 + l) * 4;
                    for (int ch = 0; ch < 4; ch++)
                        dst[ch] = dst[ch] * src[ch];
                }
        } else {                         /* alpha */
            for (i64 q = s; q < e; q++)
                for (int l = 0; l < 4; l++) {
                    if (!live[q * 4 + l]) continue;
                    double *dst = fbcolor
                        + (ys[q * 4 + l] * cw + xs[q * 4 + l]) * 4;
                    const double *src = colors + (q * 4 + l) * 4;
                    double a = src[3];
                    for (int ch = 0; ch < 4; ch++) {
                        double na = a * src[ch];
                        double nb = (1.0 - a) * dst[ch];
                        dst[ch] = na + nb;
                    }
                }
        }
        i64 ne = 0;
        for (i64 q = s; q < e; q++) {
            i64 bx = xs[q * 4] / block;
            i64 by = ys[q * 4] / block;
            i64 line = by * blocks_x + bx;
            i64 evicted = -1;
            acc++;
            if (lru_touch(line, 1, c_lines, c_dirty, c_sizes,
                          nsets, ways, line_bytes, &evicted)) {
                hits++;
            } else {
                misses++;
                uint8_t st = block_state[line];
                i64 nb = line_bytes;
                if (compression && st == 1) nb = line_bytes / 2;  /* COMPRESSED */
                if (fast_clear && st == 0) nb = 0;                /* CLEARED */
                rbytes += nb;
            }
            if (evicted >= 0) escratch[ne++] = evicted / line_bytes;
        }
        for (i64 k = 0; k < ne; k++) {
            i64 line = escratch[k];
            i64 bx = line % blocks_x, by = line / blocks_x;
            uint8_t uni = 0;
            if (compression) {
                const double *base = fbcolor
                    + (by * block * cw + bx * block) * 4;
                double c0[4];
                for (int ch = 0; ch < 4; ch++) {
                    double vv = base[ch];
                    if (vv < 0.0) vv = 0.0; else if (vv > 1.0) vv = 1.0;
                    c0[ch] = vv;
                }
                uni = 1;
                for (i64 r = 0; r < block && uni; r++) {
                    const double *row = base + r * cw * 4;
                    for (i64 c = 0; c < block * 4; c++) {
                        double vv = row[c];
                        if (vv < 0.0) vv = 0.0; else if (vv > 1.0) vv = 1.0;
                        double d = fabs(vv - c0[c & 3]);
                        if (!(d < thresh)) { uni = 0; break; }
                    }
                }
            }
            wbytes += uni ? line_bytes / 2 : line_bytes;
            block_state[line] = uni ? 1 : 2;  /* COMPRESSED : UNCOMPRESSED */
        }
    }
    counts[0] = acc;
    counts[1] = hits;
    counts[2] = misses;
    counts[3] = rbytes;
    counts[4] = wbytes;
}

/* Fused early-Z pass over a frame arena chunk: HZ cull, Z/stencil
   test-and-write, and HZ/stencil-band refresh for every (segment,
   triangle) group of the quads listed in idx, in one sequential walk.
   This is the per-triangle reference schedule (cull the triangle's quads
   against the frozen HZ state, test and write each quad's lanes
   sequentially, then refresh the touched blocks' stencil bands and — when
   the segment writes depth — HZ extents), so every per-block operation
   sequence matches ZStencilStage.process exactly.  Block refreshes are
   idempotent full-tile recomputes; duplicates are skipped only when
   consecutive.  Depth and stencil semantics mirror zstencil.py: depth
   funcs never/less/lequal/equal(|dz| <= 1e-7)/always (NaN fails every
   comparison); stencil funcs always/never/equal/notequal against the
   original stencil value; ops keep/zero/replace/incr_wrap/decr_wrap with
   numpy's nonnegative modulo; only changed stencil lanes store.  A quad
   counts as wrote when any stencil lane changed or any lane passed a
   depth-writing test (even writing an equal z), exactly like test_write.
   idx lists arena quad indices in stream order — the caller may pass a
   screen-space tile's subset; quads never span blocks and tiles never
   split blocks, so per-tile walks are independent and bit-identical to
   the single walk.  params is 16 i64 per segment: depth_test, depth_func,
   depth_write, stencil_test, stencil_func, stencil_ref, stencil_write,
   front sfail/zfail/zpass, back sfail/zfail/zpass, hz_on, hz_minmax,
   hz_stencil.  Outputs (pass_mask/entered/wrote/schanged zeroed by the
   caller) are indexed by arena quad; seg_counts is 4 i64 per segment:
   hz-culled quads, fragments tested, quads tested, complete quads. */
void zpass(const i64 *idx, i64 nidx,
           const i64 *seg_of, const i64 *tri,
           const i64 *qx, const i64 *qy, const uint8_t *cover,
           const double *z, const uint8_t *front,
           const i64 *params,
           double *fbz, i64 zw,
           void *stencil_v,
           double *hz_max, double *hz_min,
           void *hzs_min_v, void *hzs_max_v,
           i64 block, i64 blocks_x,
           uint8_t *pass_mask, uint8_t *entered, uint8_t *wrote,
           uint8_t *schanged, i64 *seg_counts)
{
    static const i64 DX[4] = {0, 1, 0, 1};
    static const i64 DY[4] = {0, 0, 1, 1};
    int16_t *stencil = (int16_t *)stencil_v;
    int16_t *hzs_min = (int16_t *)hzs_min_v;
    int16_t *hzs_max = (int16_t *)hzs_max_v;
    i64 g0 = 0;
    while (g0 < nidx) {
        i64 s = seg_of[idx[g0]];
        i64 t = tri[idx[g0]];
        i64 g1 = g0;
        while (g1 < nidx && seg_of[idx[g1]] == s && tri[idx[g1]] == t) g1++;
        const i64 *P = params + s * 16;
        i64 depth_test = P[0], dfunc = P[1], depth_write = P[2];
        i64 stencil_test = P[3], sfunc = P[4], sref = P[5];
        i64 stencil_write = P[6];
        i64 hz_on = P[13], hz_minmax = P[14], hz_stencil = P[15];
        i64 *SC = seg_counts + s * 4;
        for (i64 k = g0; k < g1; k++) {
            i64 q = idx[k];
            const uint8_t *cov = cover + q * 4;
            const double *zq = z + q * 4;
            i64 bx = qx[q] * 2 / block, by = qy[q] * 2 / block;
            i64 b = by * blocks_x + bx;
            if (hz_on) {
                int culled;
                double zmin = INFINITY;
                for (int l = 0; l < 4; l++) {
                    double v = cov[l] ? zq[l] : INFINITY;
                    if (v < zmin || v != v) zmin = v;
                }
                if (hz_minmax) {
                    double zmax = -INFINITY;
                    for (int l = 0; l < 4; l++) {
                        double v = cov[l] ? zq[l] : -INFINITY;
                        if (v > zmax || v != v) zmax = v;
                    }
                    culled = (zmin > hz_max[b]) || (zmax < hz_min[b]);
                } else {
                    culled = zmin > hz_max[b];
                }
                if (!culled && hz_stencil) {
                    int16_t smn = hzs_min[b], smx = hzs_max[b];
                    if (sfunc == 2)
                        culled = (sref < (i64)smn) || (sref > (i64)smx);
                    else if (sfunc == 3)
                        culled = ((i64)smn == sref) && ((i64)smx == sref);
                }
                if (culled) { SC[0]++; continue; }
            }
            entered[q] = 1;
            i64 op_sfail = front[q] ? P[7] : P[10];
            i64 op_zfail = front[q] ? P[8] : P[11];
            i64 op_zpass = front[q] ? P[9] : P[12];
            int changed_any = 0, zwrote_any = 0;
            i64 frag = 0;
            int all4 = 1;
            for (int l = 0; l < 4; l++) {
                uint8_t al = cov[l];
                if (al) frag++; else all4 = 0;
                i64 pix = (qy[q] * 2 + DY[l]) * zw + qx[q] * 2 + DX[l];
                double cur_z = fbz[pix];
                int16_t cur_s = stencil[pix];
                int zp;
                if (!depth_test) zp = 1;
                else if (dfunc == 1) zp = zq[l] < cur_z;
                else if (dfunc == 2) zp = zq[l] <= cur_z;
                else if (dfunc == 3) zp = fabs(zq[l] - cur_z) <= 1e-7;
                else zp = dfunc == 4;
                int sp;
                if (!stencil_test) sp = 1;
                else if (sfunc == 0) sp = 1;
                else if (sfunc == 2) sp = (i64)cur_s == sref;
                else if (sfunc == 3) sp = (i64)cur_s != sref;
                else sp = 0;
                int passed = al && zp && sp;
                pass_mask[q * 4 + l] = (uint8_t)passed;
                if (stencil_test && stencil_write && al) {
                    i64 op = !sp ? op_sfail : (!zp ? op_zfail : op_zpass);
                    if (op != 0) {
                        i64 ns;
                        if (op == 1) ns = 0;
                        else if (op == 2) ns = sref;
                        else if (op == 3) ns = ((cur_s + 1) % 256 + 256) % 256;
                        else ns = ((cur_s - 1) % 256 + 256) % 256;
                        if ((int16_t)ns != cur_s) {
                            stencil[pix] = (int16_t)ns;
                            changed_any = 1;
                        }
                    }
                }
                if (depth_test && depth_write && passed) {
                    fbz[pix] = zq[l];
                    zwrote_any = 1;
                }
            }
            SC[1] += frag;
            SC[2]++;
            SC[3] += all4;
            if (changed_any) schanged[q] = 1;
            if (changed_any || zwrote_any) wrote[q] = 1;
        }
        /* Band/HZ refresh after the whole triangle, in the reference
           order: stencil bands of changed blocks first, then (when the
           segment writes depth) HZ extents of every written block. */
        i64 prev_b = -1;
        for (i64 k = g0; k < g1; k++) {
            i64 q = idx[k];
            if (!schanged[q]) continue;
            i64 b = (qy[q] * 2 / block) * blocks_x + qx[q] * 2 / block;
            if (b == prev_b) continue;
            prev_b = b;
            const int16_t *sb = stencil
                + (b / blocks_x) * block * zw + (b % blocks_x) * block;
            int16_t mn = sb[0], mx = sb[0];
            for (i64 r = 0; r < block; r++) {
                const int16_t *row = sb + r * zw;
                for (i64 c = 0; c < block; c++) {
                    int16_t v = row[c];
                    if (v < mn) mn = v;
                    if (v > mx) mx = v;
                }
            }
            hzs_min[b] = mn;
            hzs_max[b] = mx;
        }
        if (depth_write) {
            prev_b = -1;
            for (i64 k = g0; k < g1; k++) {
                i64 q = idx[k];
                if (!wrote[q]) continue;
                i64 b = (qy[q] * 2 / block) * blocks_x + qx[q] * 2 / block;
                if (b == prev_b) continue;
                prev_b = b;
                const double *zb = fbz
                    + (b / blocks_x) * block * zw + (b % blocks_x) * block;
                double mx = zb[0], mn = zb[0];
                for (i64 r = 0; r < block; r++) {
                    const double *row = zb + r * zw;
                    for (i64 c = 0; c < block; c++) {
                        double v = row[c];
                        if (v > mx || v != v) mx = v;
                        if (v < mn || v != v) mn = v;
                    }
                }
                hz_max[b] = mx;
                hz_min[b] = mn;
            }
        }
        g0 = g1;
    }
}
"""

_lib: ctypes.CDLL | None = None
_tried = False

_I64P = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_U8P = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
_F64P = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_F32P = np.ctypeslib.ndpointer(np.float32, flags="C_CONTIGUOUS")


def _cache_dirs() -> list[pathlib.Path]:
    dirs = []
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        dirs.append(pathlib.Path(override))
    dirs.append(pathlib.Path(__file__).resolve().parent / "_build")
    dirs.append(pathlib.Path(tempfile.gettempdir()) / "repro-native")
    return dirs


def _source_digest() -> str:
    """Full SHA-256 of the C source — the binary cache key."""
    return hashlib.sha256(_SOURCE.encode()).hexdigest()


def _sidecar(so_path: pathlib.Path) -> pathlib.Path:
    return so_path.with_name(so_path.name + ".sha256")


def _compile(so_path: pathlib.Path) -> bool:
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        return False
    try:
        so_path.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=so_path.parent) as tmp:
            src = pathlib.Path(tmp) / "kernels.c"
            src.write_text(_SOURCE)
            out = pathlib.Path(tmp) / "kernels.so"
            # -ffp-contract=off: the float kernels promise numpy's exact
            # IEEE results, so the compiler must not fuse multiply-adds.
            subprocess.run(
                [
                    cc, "-O2", "-ffp-contract=off", "-shared", "-fPIC",
                    str(src), "-o", str(out), "-lm",
                ],
                check=True,
                capture_output=True,
                timeout=120,
            )
            # Atomic publish: concurrent farm workers may race to build.
            # The sidecar records the source digest the binary was built
            # from and goes first, so a visible .so always has its proof.
            side = pathlib.Path(tmp) / "kernels.sha256"
            side.write_text(_source_digest())
            os.replace(side, _sidecar(so_path))
            os.replace(out, so_path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False


def _verified(so_path: pathlib.Path) -> bool:
    """Whether the cached binary's sidecar matches the current source."""
    try:
        return _sidecar(so_path).read_text().strip() == _source_digest()
    except OSError:
        return False


def _quarantine(so_path: pathlib.Path) -> None:
    """Move a failed binary (and its sidecar) aside for post-mortem."""
    for path in (so_path, _sidecar(so_path)):
        try:
            os.replace(path, path.with_name(path.name + f".bad-{os.getpid()}"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass


def _load() -> ctypes.CDLL | None:
    # Keyed by the *full* SHA-256 of the C source: editing any kernel can
    # never load a stale binary.  A corrupt or mismatched artifact (bad
    # sidecar, unloadable .so, missing symbol) is quarantined and rebuilt
    # once before falling through to the next cache directory.
    name = f"repro-kernels-{_source_digest()}.so"
    for directory in _cache_dirs():
        so_path = directory / name
        lib = None
        for _attempt in range(2):
            if not so_path.exists() and not _compile(so_path):
                break
            if not _verified(so_path):
                _quarantine(so_path)
                continue
            try:
                lib = ctypes.CDLL(str(so_path))
                _configure(lib)
            except (OSError, AttributeError):
                lib = None
                _quarantine(so_path)
                continue
            break
        if lib is not None:
            return lib
    return None


def _configure(lib: ctypes.CDLL) -> None:
    """Set prototypes; raises AttributeError when a kernel is missing."""
    lib.lru_run.restype = None
    lib.lru_run.argtypes = [
        _I64P, ctypes.c_int64, ctypes.c_int, ctypes.c_void_p,
        _I64P, _U8P, _I64P,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        _I64P, _I64P, _I64P,
    ]
    lib.texcache.restype = ctypes.c_int
    lib.texcache.argtypes = [
        _F64P, _F64P, ctypes.c_void_p, ctypes.c_int64,
        _F64P, _I64P, _F64P, _F64P, _F64P,
        ctypes.c_int, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        _I64P, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64,
        _I64P, _I64P, ctypes.c_int64, ctypes.c_int64,
        _I64P, _I64P, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64,
        _I64P,
    ]
    lib.raster_edges.restype = None
    lib.raster_edges.argtypes = [
        _I64P, _I64P, _I64P, ctypes.c_int64,
        _F64P, _F64P, _F64P, _U8P,
        _F64P, _U8P,
    ]
    lib.raster_interp.restype = None
    lib.raster_interp.argtypes = [
        _F64P, ctypes.c_int64,
        _I64P, _I64P, ctypes.c_int64,
        _F64P,
        _F64P, _F64P, _F64P, _F64P,
        _F64P, _F64P, _F64P,
    ]
    lib.hz_update.restype = None
    lib.hz_update.argtypes = [
        _F64P, ctypes.c_int64, ctypes.c_int64,
        _I64P, _I64P, ctypes.c_int64,
        _F64P, _F64P, ctypes.c_int64,
    ]
    lib.blocks_uniform.restype = None
    lib.blocks_uniform.argtypes = [
        _F64P, ctypes.c_int64, ctypes.c_int64,
        _I64P, _I64P, ctypes.c_int64, _U8P,
    ]
    lib.bilinear.restype = None
    lib.bilinear.argtypes = [
        _F32P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        _F64P, _F64P, ctypes.c_int64,
        ctypes.c_int64, _F32P,
    ]
    lib.bilinear_levels.restype = None
    lib.bilinear_levels.argtypes = [
        _F32P, _I64P, _I64P, _I64P, ctypes.c_int64,
        _F64P, _F64P, _I64P, ctypes.c_int64,
        _F32P,
    ]
    lib.colorpass.restype = None
    lib.colorpass.argtypes = [
        _I64P, _I64P, _F64P, _U8P, ctypes.c_int64,
        _I64P, _I64P, ctypes.c_int64,
        ctypes.c_int64,
        _F64P, ctypes.c_int64,
        _U8P, ctypes.c_int64, ctypes.c_int64,
        _I64P, _U8P, _I64P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64,
        _I64P, _I64P,
    ]
    lib.zpass.restype = None
    lib.zpass.argtypes = [
        _I64P, ctypes.c_int64,
        _I64P, _I64P,
        _I64P, _I64P, _U8P, _F64P, _U8P,
        _I64P,
        _F64P, ctypes.c_int64,
        ctypes.c_void_p,
        _F64P, _F64P,
        ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_int64, ctypes.c_int64,
        _U8P, _U8P, _U8P, _U8P,
        _I64P,
    ]


def _fault_blocked() -> bool:
    """Whether an injected fault plan disables the native build.

    Imported lazily: this module is loaded early in the ``repro.gpu``
    import chain, and the fault layer lives in ``repro.farm`` — a runtime
    import here keeps the module graph acyclic.
    """
    if "REPRO_FAULTS" not in os.environ:
        return False
    try:
        from repro.farm.faults import native_compile_fault

        return native_compile_fault()
    except Exception:
        return False


def _reset() -> None:
    """Forget the cached probe so the next :func:`available` re-evaluates.

    Used by the fault-injection layer (forked pool workers inherit the
    parent's probe result) and by tests.
    """
    global _lib, _tried
    _lib = None
    _tried = False


def available() -> bool:
    """Whether the compiled kernel can be used (lazy one-time build)."""
    global _lib, _tried
    if not _tried:
        _tried = True
        if os.environ.get("REPRO_NO_NATIVE") or _fault_blocked():
            _lib = None
        else:
            _lib = _load()
    return _lib is not None


def lru_run(
    stream: np.ndarray,
    write_mode: int,
    flags: np.ndarray | None,
    lines: np.ndarray,
    dirty: np.ndarray,
    sizes: np.ndarray,
    nsets: int,
    ways: int,
    line_bytes: int,
    miss_buf: np.ndarray,
    evict_buf: np.ndarray,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Run the kernel in place over ``lines``/``dirty``/``sizes``.

    Returns ``(hits, miss_lines, dirty_eviction_addrs)``; the state arrays
    are updated to the post-stream LRU contents.  ``miss_buf``/``evict_buf``
    are caller-owned scratch arrays of at least ``len(stream)`` entries; the
    returned arrays are trimmed copies.
    """
    n = stream.shape[0]
    counts = np.zeros(3, dtype=np.int64)
    if flags is None:
        flags_ptr = None
    else:
        flags_ptr = flags.ctypes.data_as(ctypes.c_void_p)
    _lib.lru_run(
        stream, n, write_mode, flags_ptr,
        lines, dirty, sizes,
        nsets, ways, line_bytes,
        miss_buf, evict_buf, counts,
    )
    hits, misses, evictions = (int(v) for v in counts)
    return hits, miss_buf[:misses].copy(), evict_buf[:evictions].copy()


def texcache(
    u: np.ndarray,
    v: np.ndarray,
    covered: np.ndarray | None,
    lod: np.ndarray,
    mip0: np.ndarray,
    ratio: np.ndarray,
    du: np.ndarray,
    dv: np.ndarray,
    filter_code: int,
    max_level: int,
    width: int,
    height: int,
    mip_offsets: np.ndarray,
    base_address: int,
    block_bytes: int,
    l0_state: tuple[np.ndarray, np.ndarray],
    l0_geometry: tuple[int, int],
    l1_state: tuple[np.ndarray, np.ndarray],
    l1_geometry: tuple[int, int],
    l1_line_bytes: int,
) -> tuple[int, int, int, int, int, int]:
    """Texture-request pass: tallies, address generation, L0/L1 walk.

    ``u``/``v`` (float64) and ``covered`` (uint8, or ``None`` for every
    lane) are per lane; ``lod``/``ratio``/``du``/``dv`` (float64) and
    ``mip0`` (int64) per quad.  ``filter_code`` is 0 bilinear, 1 trilinear,
    2 anisotropic.  Each cache state is its ``(lines, sizes)`` MRU-first
    arrays, updated in place.  Returns ``(requests, bilinears, l0_hits,
    l0_misses, l1_hits, l1_misses)``.  Raises :class:`ValueError` when a
    covered lane's footprint is not finite (its mip level or probe count is
    out of range); the state is then untouched.
    """
    n = u.shape[0]
    quads = (n // 4,)
    if (
        n % 4
        or v.shape != (n,)
        or any(a.shape != quads for a in (lod, mip0, ratio, du, dv))
        or (covered is not None and (
            covered.shape != (n,)
            or covered.dtype != np.uint8
            or not covered.flags.c_contiguous
        ))
        or mip_offsets.shape[0] < 1
    ):
        raise ValueError("texcache: lane or quad arrays of mismatched shape")
    for (lines, sizes), (nsets, ways) in (
        (l0_state, l0_geometry), (l1_state, l1_geometry),
    ):
        if lines.shape != (nsets * ways,) or sizes.shape != (nsets,):
            raise ValueError("texcache: cache state does not match geometry")
    counts = np.zeros(6, dtype=np.int64)
    status = _lib.texcache(
        u, v,
        None if covered is None else covered.ctypes.data_as(ctypes.c_void_p),
        n,
        lod, mip0, ratio, du, dv,
        filter_code, max_level, width, height,
        mip_offsets, mip_offsets.shape[0],
        base_address, block_bytes,
        l0_state[0], l0_state[1], l0_geometry[0], l0_geometry[1],
        l1_state[0], l1_state[1], l1_geometry[0], l1_geometry[1],
        l1_line_bytes,
        counts,
    )
    if status == -2:
        raise MemoryError("texcache: out of memory")
    if status != 0:
        raise ValueError("texture footprint is not finite")
    return tuple(int(c) for c in counts)  # type: ignore[return-value]


def raster_edges(
    cqx: np.ndarray,
    cqy: np.ndarray,
    tri: np.ndarray,
    ea: np.ndarray,
    eb: np.ndarray,
    ec: np.ndarray,
    etl: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Edge values (3, n, 4) and coverage mask (n, 4) for candidate quads."""
    n = cqx.shape[0]
    es = np.empty((3, n, 4), dtype=np.float64)
    covered = np.empty((n, 4), dtype=np.uint8)
    _lib.raster_edges(cqx, cqy, tri, n, ea, eb, ec, etl, es, covered)
    return es, covered


def raster_interp(
    es: np.ndarray,
    keep_idx: np.ndarray,
    tk: np.ndarray,
    inv_area: np.ndarray,
    zs: np.ndarray,
    ws: np.ndarray,
    uvs: np.ndarray,
    cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Depth (K, 4), uv (K, 4, 2) and color (K, 4, 4) for the kept quads."""
    nk = keep_idx.shape[0]
    depth = np.empty((nk, 4), dtype=np.float64)
    uv = np.empty((nk, 4, 2), dtype=np.float64)
    col = np.empty((nk, 4, 4), dtype=np.float64)
    _lib.raster_interp(
        es, es.shape[1], keep_idx, tk, nk,
        inv_area, zs, ws, uvs, cols,
        depth, uv, col,
    )
    return depth, uv, col


def hz_update(
    z: np.ndarray,
    block: int,
    bx: np.ndarray,
    by: np.ndarray,
    hz_max: np.ndarray,
    hz_min: np.ndarray,
) -> None:
    """Refresh ``hz_max``/``hz_min`` in place for the listed blocks."""
    _lib.hz_update(
        z, z.shape[1], block, bx, by, bx.shape[0],
        hz_max, hz_min, hz_max.shape[1],
    )


def blocks_uniform(
    color: np.ndarray,
    block: int,
    bx: np.ndarray,
    by: np.ndarray,
) -> np.ndarray:
    """Uniformity flags (uint8) for the listed color blocks."""
    out = np.empty(bx.shape[0], dtype=np.uint8)
    _lib.blocks_uniform(
        color, color.shape[1], block, bx, by, bx.shape[0], out,
    )
    return out


def bilinear(
    mip: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    level: int,
    out: np.ndarray,
) -> None:
    """Bilinear fetch from one (h, w, c) float32 mip into ``out``."""
    h, w, nc = mip.shape
    _lib.bilinear(mip, h, w, nc, u, v, u.shape[0], level, out)


def bilinear_levels(
    flat: np.ndarray,
    offs: np.ndarray,
    hs: np.ndarray,
    ws: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    mip0: np.ndarray,
    out: np.ndarray,
) -> None:
    """Bilinear fetch across a flattened RGBA mip chain, one pass."""
    _lib.bilinear_levels(
        flat, offs, hs, ws, offs.shape[0],
        u, v, mip0, u.shape[0], out,
    )


def colorpass(
    xs: np.ndarray,
    ys: np.ndarray,
    colors: np.ndarray,
    live: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    blend_mode: int,
    fbcolor: np.ndarray,
    block_state: np.ndarray,
    block: int,
    blocks_x: int,
    cache_state: tuple[np.ndarray, np.ndarray, np.ndarray],
    nsets: int,
    ways: int,
    line_bytes: int,
    compression: bool,
    fast_clear: bool,
    escratch: np.ndarray,
) -> tuple[int, int, int, int, int]:
    """Fused color blend + cache accounting over per-triangle groups.

    Mutates ``fbcolor``/``block_state`` and the cache state triple in
    place; returns ``(accesses, hits, misses, read_bytes, write_bytes)``.
    ``escratch`` is caller scratch of at least ``len(xs) // 4`` entries.
    """
    nquads = xs.shape[0] // 4
    counts = np.zeros(5, dtype=np.int64)
    _lib.colorpass(
        xs, ys, colors, live, nquads,
        starts, ends, starts.shape[0],
        blend_mode,
        fbcolor, fbcolor.shape[1],
        block_state, block, blocks_x,
        cache_state[0], cache_state[1], cache_state[2],
        nsets, ways, line_bytes,
        int(compression), int(fast_clear),
        escratch, counts,
    )
    return tuple(int(v) for v in counts)  # type: ignore[return-value]


def zpass(
    idx: np.ndarray,
    seg_of: np.ndarray,
    tri: np.ndarray,
    qx: np.ndarray,
    qy: np.ndarray,
    cover: np.ndarray,
    z: np.ndarray,
    front: np.ndarray,
    params: np.ndarray,
    fbz: np.ndarray,
    stencil: np.ndarray,
    hz_max: np.ndarray,
    hz_min: np.ndarray,
    hzs_min: np.ndarray,
    hzs_max: np.ndarray,
    block: int,
    pass_mask: np.ndarray,
    entered: np.ndarray,
    wrote: np.ndarray,
    schanged: np.ndarray,
    seg_counts: np.ndarray,
) -> None:
    """Fused HZ-cull + Z/stencil test-and-write over arena quads ``idx``.

    Mutates the framebuffer planes, HZ arrays, and the caller-zeroed
    ``pass_mask``/``entered``/``wrote``/``schanged``/``seg_counts``.
    """
    _lib.zpass(
        idx, idx.shape[0],
        seg_of, tri,
        qx, qy, cover, z, front,
        params,
        fbz, fbz.shape[1],
        stencil.ctypes.data_as(ctypes.c_void_p),
        hz_max, hz_min,
        hzs_min.ctypes.data_as(ctypes.c_void_p),
        hzs_max.ctypes.data_as(ctypes.c_void_p),
        block, hz_max.shape[1],
        pass_mask, entered, wrote, schanged,
        seg_counts,
    )
