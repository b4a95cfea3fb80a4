/* Native interval core: the fast timing path.
 *
 * An array-state interpreter for the microarchitecture the per-uop
 * reference Processor (repro/sim/processor.py) models, over a batch-decoded
 * workload (repro/workloads/decode.py).  It steps every cycle and scans the
 * issue queues directly -- semantically the reference algorithm -- and is
 * locked byte-identical to it by tests/test_fast_timing_equivalence.py.
 *
 * Scope: every frontend organization, centralized or partitioned.  A
 * distributed ROB commits in global allocation order (each partition is a
 * FIFO, and the oldest entry overall heads its partition), so one global
 * ring holds the ROB and a per-partition occupancy count enforces each
 * partition's capacity.  All steering policies, fetch gates, bank
 * gating/mapping control and the UL2 extra-miss actuator are supported.
 *
 * The same library carries the workload front end (wl_generate, at the end
 * of this file): a twin of repro/workloads/generator.py that generates a
 * workload and decodes it in one pass, draw for draw with the Python
 * generator, and is locked byte-identical to
 * decode_workload(TraceGenerator(...).generate(n).uops) by
 * tests/test_native_workload.py.
 *
 * Built at runtime by repro/sim/native.py with the system C compiler and
 * loaded through ctypes; when no compiler is available the engines run the
 * reference Processor over the Python generator instead, producing the same
 * outputs.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* ABI version: bump on any layout/parameter change so a stale cached
 * shared object is never loaded against newer Python glue. */
#define FP_ABI 8

/* Parameter vector layout (keep in sync with repro/sim/native.py). */
enum {
    P_N, P_LINE_UOPS, P_NCL, P_NF, P_NBLOCKS,
    P_FWIDTH, P_DWIDTH, P_CWIDTH, P_IWIDTH, P_DISPLAT,
    P_PRESCHED_CAP, P_MP_PENALTY, P_FBUF, P_DEADLOCK, P_READY_OFF,
    P_UL2_HIT, P_UL2_MISS, P_DC_HIT, P_COMMIT_LAG, P_ROB_CAP,
    P_QCAP0, P_QCAP1, P_QCAP2, P_QCAP3, P_MOB_CAP,
    P_INT_REGS, P_FP_REGS, P_REG_BITS, P_POLICY,
    P_NBUSES, P_BUS_ARB, P_BUS_XFER, P_NLINKS, P_P2P_HOP,
    P_TC_BANKS, P_TC_SETS, P_TC_ASSOC, P_TC_MAP_ENTRIES, P_TC_BUILD_OVH,
    P_UL2_SETS, P_UL2_ASSOC, P_UL2_LINE_BYTES,
    P_DL1_SETS, P_DL1_ASSOC, P_DL1_LINE_BYTES,
    P_NUM_INT_ARCH, P_ARCH_TOTAL, P_N_CODES,
    P_CODE_COPY, P_CODE_LOAD, P_CODE_STORE,
    P_ITLB_B, P_DECO_B, P_BP_B, P_UL2_B,
    P_COUNT
};

/* Stats snapshot layout (keep in sync with repro/sim/native.py). */
enum {
    S_CYCLE, S_FETCHED, S_COMMITTED, S_CCOPIES, S_COPYG, S_COPYREQ,
    S_BRANCHES, S_MISPRED, S_DHITS, S_DMISS, S_UL2H, S_UL2M,
    S_RSTALL, S_ROBSTALL, S_FSTALL,
    S_TC_HITS, S_TC_MISSES, S_TC_INSERTIONS, S_TC_HOPFLUSH,
    S_UL2C_HITS, S_UL2C_MISSES,
    S_FINISHED, S_LAST_COMMIT, S_DL_OCC, S_DL_RQ,
    S_DISP0, /* + n_clusters entries */
    S_COUNT_BASE
};

#define NOT_READY (1LL << 60)
#define CALSZ 4096           /* completion calendar span (cycles ahead) */
#define MAX_PREV 16          /* freed mappings per commit <= n_clusters */

typedef struct {
    i64 code, cluster, frontend, dest;
    i64 src0, src1;          /* -1 padded */
    int nsrc;
    int nprev;
    i64 prev[MAX_PREV];
    i64 comp;                /* completion cycle, -1 until writeback */
    i64 addr;                /* mem address; for copies: dest cluster */
    i64 lat;
    i64 arrival;
    int is_copy, is_store, is_load, mpb;
    int cal_next;            /* completion-calendar chain */
} Rec;

typedef struct { i64 *buf; int head, tail, cap; } Ring;

static void ring_init(Ring *r, int cap) {
    r->buf = (i64 *)malloc(sizeof(i64) * (size_t)cap);
    r->head = r->tail = 0;
    r->cap = cap;
}
static int ring_len(const Ring *r) {
    int d = r->tail - r->head;
    return d < 0 ? d + r->cap : d;
}
static void ring_push(Ring *r, i64 v) {
    r->buf[r->tail] = v;
    r->tail = (r->tail + 1) % r->cap;
}
static i64 ring_pop(Ring *r) {
    i64 v = r->buf[r->head];
    r->head = (r->head + 1) % r->cap;
    return v;
}
static i64 ring_peek(const Ring *r) { return r->buf[r->head]; }
static i64 ring_at(const Ring *r, int i) {
    return r->buf[(r->head + i) % r->cap];
}

/* Set-associative LRU tag store: ways ordered LRU-first within each set. */
typedef struct {
    i64 *tags;               /* sets * assoc, -1 = invalid */
    int *count;              /* valid ways per set */
    int sets, assoc;
} Cache;

static void cache_init(Cache *c, int sets, int assoc) {
    c->sets = sets;
    c->assoc = assoc;
    c->tags = (i64 *)malloc(sizeof(i64) * (size_t)sets * (size_t)assoc);
    c->count = (int *)calloc((size_t)sets, sizeof(int));
    for (int i = 0; i < sets * assoc; i++) c->tags[i] = -1;
}
/* Lookup tag; on hit move to MRU (last) slot.  Returns 1 on hit. */
static int cache_lookup(Cache *c, int set, i64 tag) {
    i64 *w = c->tags + (size_t)set * (size_t)c->assoc;
    int n = c->count[set];
    for (int i = 0; i < n; i++) {
        if (w[i] == tag) {
            for (int j = i; j < n - 1; j++) w[j] = w[j + 1];
            w[n - 1] = tag;
            return 1;
        }
    }
    return 0;
}
/* Insert tag as MRU, evicting LRU if the set is full (miss path). */
static void cache_insert(Cache *c, int set, i64 tag) {
    i64 *w = c->tags + (size_t)set * (size_t)c->assoc;
    int n = c->count[set];
    if (n >= c->assoc) {
        for (int j = 0; j < n - 1; j++) w[j] = w[j + 1];
        w[n - 1] = tag;
    } else {
        w[n] = tag;
        c->count[set] = n + 1;
    }
}

typedef struct {
    /* --- configuration (copied from the parameter vector) --- */
    i64 p[P_COUNT];
    /* --- block-id tables --- */
    int *rob_b, *front_of, *rat_b, *tc_b, *dl1_b, *dtlb_b, *ifu_b,
        *fpfu_b, *mob_b, *rfb, *sched_flat, *qsel, *fu_b;
    /* --- decoded workload (borrowed pointers, kept alive by Python) --- */
    const i64 *cls, *lat, *addr, *dest, *srcs /* n x 2 */, *ineed, *fneed;
    const uint8_t *isbr, *mp;
    /* --- trace lines, segmented at creation (owned) --- */
    i64 n_lines;
    i64 *l_start, *l_end, *l_pc, *l_fc;
    uint8_t *l_ex;
    /* --- activity accumulator (borrowed, block-index order) --- */
    i64 *acc;

    /* --- trace cache --- */
    Cache *tc_sets;          /* one per bank */
    int *tc_gated;
    int *tc_map;             /* mapping-table entries */
    i64 tc_hits, tc_misses, tc_insertions, tc_hopflush;

    /* --- UL2 / L1D --- */
    Cache ul2;
    i64 ul2_hits, ul2_misses;
    i64 ul2_extra_miss;      /* contention actuator, added to every miss */
    Cache *dl1;              /* one per cluster */

    /* --- core state --- */
    i64 cycle;
    Rec *pool;
    int pool_cap;
    int *freerec;
    int nfree;

    i64 *ready_flat;         /* span = 2*ncl << reg_bits */
    Ring *free_tab;          /* per bank: free phys regs, FIFO */
    i64 *maptab;             /* arch_total x ncl */

    int *queues;             /* 16-ish: per qi, rec idx in age order */
    int *qn;                 /* entries per queue */
    int qcap_max;
    Ring *pipes;             /* per cluster: rec idx (arrival in rec) */
    i64 *in_flight, *mob_occ;
    Ring rob;                /* every partition, in allocation order */
    i64 *rob_occ;            /* entries per frontend partition */
    Ring fq_ready, fq_idx;   /* parallel rings */
    i64 *bus_free, *p2p_free;

    int *cal_head, *cal_tail;    /* completion calendar, CALSZ buckets */

    i64 line_idx, lbpos, lbend;
    int exhausted, waiting;
    i64 stall_until, live, last_commit, rr;
    int pending;             /* rec idx or -1 */

    /* --- stats --- */
    i64 s_fetched, s_committed, s_ccopies, s_copyg, s_copyreq;
    i64 s_branches, s_mispred, s_dhits, s_dmiss, s_ul2h, s_ul2m;
    i64 s_rstall, s_robstall, s_fstall;
    i64 *disp;
    i64 dl_occ, dl_rq;       /* deadlock diagnostics */
} S;

i64 fp_abi(void) { return FP_ABI; }
i64 fp_param_count(void) { return P_COUNT; }

static int *copy_i32(const i64 *src, int n) {
    int *out = (int *)malloc(sizeof(int) * (size_t)n);
    for (int i = 0; i < n; i++) out[i] = (int)src[i];
    return out;
}

/* Chop the uop stream into trace-cache lines exactly as the reference fetch
 * unit assembles them (FetchUnit._assemble_line): up to line_uops uops,
 * ending early after the third branch.  l_ex marks the line whose assembly
 * hit the end of the stream mid-pull -- the cycle at which the reference
 * latches its exhausted flag -- i.e. a line cut short by the stream end
 * rather than by the uop cap or the branch rule. */
static void segment_lines(S *s, const i64 *pc, i64 n, i64 line_uops, i64 fwidth) {
    size_t cap = (size_t)n + 1;
    s->l_start = (i64 *)malloc(sizeof(i64) * cap);
    s->l_end = (i64 *)malloc(sizeof(i64) * cap);
    s->l_pc = (i64 *)malloc(sizeof(i64) * cap);
    s->l_fc = (i64 *)malloc(sizeof(i64) * cap);
    s->l_ex = (uint8_t *)malloc(cap);
    i64 nl = 0;
    for (i64 i = 0; i < n;) {
        i64 limit = i + line_uops < n ? i + line_uops : n;
        int branches = 0, stopped = 0;
        i64 j = i;
        while (j < limit) {
            if (s->isbr[j++] && ++branches >= 3) {
                stopped = 1;
                break;
            }
        }
        i64 length = j - i;
        i64 fc = (length + fwidth - 1) / fwidth;
        s->l_start[nl] = i;
        s->l_end[nl] = j;
        s->l_pc[nl] = pc[i];
        s->l_fc[nl] = fc < 1 ? 1 : fc;
        s->l_ex[nl] = j == n && length < line_uops && !stopped;
        nl++;
        i = j;
    }
    s->n_lines = nl;
}

void *fp_create(const i64 *params,
                const i64 *rob_b, const i64 *front_of, const i64 *rat_b,
                const i64 *tc_b, const i64 *dl1_b, const i64 *dtlb_b,
                const i64 *ifu_b, const i64 *fpfu_b, const i64 *mob_b,
                const i64 *rfb, const i64 *sched_flat, const i64 *qsel,
                const i64 *fu_b,
                const i64 *pc, const i64 *cls, const i64 *lat, const i64 *addr,
                const uint8_t *isbr, const uint8_t *mp, const i64 *dest,
                const i64 *srcs, const i64 *ineed, const i64 *fneed,
                i64 *acc) {
    S *s = (S *)calloc(1, sizeof(S));
    memcpy(s->p, params, sizeof(i64) * P_COUNT);
    int ncl = (int)s->p[P_NCL];
    int nf = (int)s->p[P_NF];
    int nbanks = 2 * ncl;
    int ncodes = (int)s->p[P_N_CODES];

    s->rob_b = copy_i32(rob_b, nf);
    s->front_of = copy_i32(front_of, ncl);
    s->rat_b = copy_i32(rat_b, ncl);
    s->tc_b = copy_i32(tc_b, (int)s->p[P_TC_BANKS]);
    s->dl1_b = copy_i32(dl1_b, ncl);
    s->dtlb_b = copy_i32(dtlb_b, ncl);
    s->ifu_b = copy_i32(ifu_b, ncl);
    s->fpfu_b = copy_i32(fpfu_b, ncl);
    s->mob_b = copy_i32(mob_b, ncl);
    s->rfb = copy_i32(rfb, nbanks);
    s->sched_flat = copy_i32(sched_flat, 4 * ncl);
    s->qsel = copy_i32(qsel, ncodes);
    s->fu_b = copy_i32(fu_b, ncl * ncodes);

    s->cls = cls; s->lat = lat; s->addr = addr; s->isbr = isbr; s->mp = mp;
    s->dest = dest; s->srcs = srcs; s->ineed = ineed; s->fneed = fneed;
    s->acc = acc;
    segment_lines(s, pc, s->p[P_N], s->p[P_LINE_UOPS], s->p[P_FWIDTH]);

    int tcb = (int)s->p[P_TC_BANKS];
    s->tc_sets = (Cache *)malloc(sizeof(Cache) * (size_t)tcb);
    for (int b = 0; b < tcb; b++)
        cache_init(&s->tc_sets[b], (int)s->p[P_TC_SETS], (int)s->p[P_TC_ASSOC]);
    s->tc_gated = (int *)calloc((size_t)tcb, sizeof(int));
    int me = (int)s->p[P_TC_MAP_ENTRIES];
    s->tc_map = (int *)malloc(sizeof(int) * (size_t)me);
    /* Balanced initial mapping over all banks (BankMappingTable ctor). */
    {
        int base = me / tcb, rem = me - base * tcb, pos = 0;
        for (int b = 0; b < tcb; b++) {
            int share = base + (b < rem ? 1 : 0);
            for (int k = 0; k < share; k++) s->tc_map[pos++] = b;
        }
    }

    cache_init(&s->ul2, (int)s->p[P_UL2_SETS], (int)s->p[P_UL2_ASSOC]);
    s->dl1 = (Cache *)malloc(sizeof(Cache) * (size_t)ncl);
    for (int c = 0; c < ncl; c++)
        cache_init(&s->dl1[c], (int)s->p[P_DL1_SETS], (int)s->p[P_DL1_ASSOC]);

    int reg_bits = (int)s->p[P_REG_BITS];
    int span = nbanks << reg_bits;
    s->ready_flat = (i64 *)calloc((size_t)span, sizeof(i64));
    s->free_tab = (Ring *)malloc(sizeof(Ring) * (size_t)nbanks);
    for (int b = 0; b < nbanks; b++) {
        int nregs = (int)((b & 1) ? s->p[P_FP_REGS] : s->p[P_INT_REGS]);
        ring_init(&s->free_tab[b], nregs + 1);
        for (int r = 0; r < nregs; r++) ring_push(&s->free_tab[b], r);
    }
    s->maptab = (i64 *)malloc(sizeof(i64) * (size_t)s->p[P_ARCH_TOTAL] * (size_t)ncl);
    for (i64 i = 0; i < s->p[P_ARCH_TOTAL] * ncl; i++) s->maptab[i] = -1;

    s->qcap_max = 0;
    for (int k = 0; k < 4; k++) {
        int cap = (int)s->p[P_QCAP0 + k];
        if (cap > s->qcap_max) s->qcap_max = cap;
    }
    s->queues = (int *)malloc(sizeof(int) * 4u * (size_t)ncl * (size_t)s->qcap_max);
    s->qn = (int *)calloc(4u * (size_t)ncl, sizeof(int));
    /* Copy uops are appended to the *source* cluster's pipe without a
     * capacity check (only the consumer's pipe is capped), so a pipe can
     * exceed the prescheduler limit by the number of live copies, itself
     * bounded by two per ROB entry. */
    int rob_total = (int)(s->p[P_ROB_CAP] * nf);
    int pipe_cap = (int)(s->p[P_PRESCHED_CAP] + 2 * rob_total + 16);
    s->pipes = (Ring *)malloc(sizeof(Ring) * (size_t)ncl);
    for (int c = 0; c < ncl; c++)
        ring_init(&s->pipes[c], pipe_cap);
    s->in_flight = (i64 *)calloc((size_t)ncl, sizeof(i64));
    s->mob_occ = (i64 *)calloc((size_t)ncl, sizeof(i64));
    ring_init(&s->rob, rob_total + 2);
    s->rob_occ = (i64 *)calloc((size_t)nf, sizeof(i64));
    int fqcap = (int)(s->p[P_FBUF] + s->p[P_FWIDTH] + 4);
    ring_init(&s->fq_ready, fqcap);
    ring_init(&s->fq_idx, fqcap);
    s->bus_free = (i64 *)calloc((size_t)s->p[P_NBUSES], sizeof(i64));
    s->p2p_free = (i64 *)calloc((size_t)s->p[P_NLINKS], sizeof(i64));

    /* Rec pool: live recs are ROB entries (<= cap + 1) plus copies in
     * flight (<= 2 per ROB entry: a copy's consumer holds its ROB slot
     * until after the copy completes and is freed). */
    s->pool_cap = 3 * rob_total + 4 * ncl * s->qcap_max + 1024;
    s->pool = (Rec *)malloc(sizeof(Rec) * (size_t)s->pool_cap);
    s->freerec = (int *)malloc(sizeof(int) * (size_t)s->pool_cap);
    s->nfree = s->pool_cap;
    for (int i = 0; i < s->pool_cap; i++) s->freerec[i] = s->pool_cap - 1 - i;

    s->cal_head = (int *)malloc(sizeof(int) * CALSZ);
    s->cal_tail = (int *)malloc(sizeof(int) * CALSZ);
    for (int i = 0; i < CALSZ; i++) s->cal_head[i] = s->cal_tail[i] = -1;

    s->pending = -1;
    s->disp = (i64 *)calloc((size_t)ncl, sizeof(i64));
    return s;
}

void fp_destroy(void *sv) {
    S *s = (S *)sv;
    if (!s) return;
    int ncl = (int)s->p[P_NCL];
    free(s->rob_b); free(s->front_of); free(s->rat_b); free(s->tc_b);
    free(s->dl1_b); free(s->dtlb_b); free(s->ifu_b); free(s->fpfu_b);
    free(s->mob_b); free(s->rfb); free(s->sched_flat); free(s->qsel);
    free(s->fu_b);
    for (int b = 0; b < (int)s->p[P_TC_BANKS]; b++) {
        free(s->tc_sets[b].tags); free(s->tc_sets[b].count);
    }
    free(s->tc_sets); free(s->tc_gated); free(s->tc_map);
    free(s->ul2.tags); free(s->ul2.count);
    for (int c = 0; c < ncl; c++) { free(s->dl1[c].tags); free(s->dl1[c].count); }
    free(s->dl1);
    free(s->ready_flat);
    for (int b = 0; b < 2 * ncl; b++) free(s->free_tab[b].buf);
    free(s->free_tab); free(s->maptab);
    free(s->queues); free(s->qn);
    for (int c = 0; c < ncl; c++) free(s->pipes[c].buf);
    free(s->pipes); free(s->in_flight); free(s->mob_occ);
    free(s->rob.buf); free(s->rob_occ); free(s->fq_ready.buf); free(s->fq_idx.buf);
    free(s->bus_free); free(s->p2p_free);
    free(s->pool); free(s->freerec);
    free(s->cal_head); free(s->cal_tail);
    free(s->disp);
    free(s->l_start); free(s->l_end); free(s->l_pc); free(s->l_fc); free(s->l_ex);
    free(s);
}

/* ---- trace cache ------------------------------------------------------ */

static int tc_hash(i64 address) {
    i64 low = (address >> 2) & 31;
    i64 high = (address >> 7) & 31;
    return (int)((low ^ high) & 31);
}

static int tc_bank_for(S *s, i64 pc) {
    int idx = tc_hash(pc) % (int)s->p[P_TC_MAP_ENTRIES];
    return s->tc_map[idx];
}

/* Returns latency (0 = hit); writes bank and hit flag. */
static i64 tc_access(S *s, i64 pc, int *bank_out, int *hit_out) {
    int bank = tc_bank_for(s, pc);
    if (s->tc_gated[bank]) {
        for (int b = 0; b < (int)s->p[P_TC_BANKS]; b++)
            if (!s->tc_gated[b]) { bank = b; break; }
    }
    Cache *bc = &s->tc_sets[bank];
    int set = (int)((pc >> 4) % bc->sets);
    *bank_out = bank;
    if (!s->tc_gated[bank] && cache_lookup(bc, set, pc)) {
        s->tc_hits++;
        *hit_out = 1;
        return 0;
    }
    s->tc_misses++;
    s->tc_insertions++;
    if (!s->tc_gated[bank]) cache_insert(bc, set, pc);
    *hit_out = 0;
    return s->p[P_UL2_HIT] + s->p[P_TC_BUILD_OVH];
}

void fp_tc_set_gated(void *sv, const i64 *gated, i64 n) {
    S *s = (S *)sv;
    (void)n;
    for (int b = 0; b < (int)s->p[P_TC_BANKS]; b++) {
        int g = (int)gated[b];
        if (g && !s->tc_gated[b]) {
            Cache *bc = &s->tc_sets[b];
            for (int st = 0; st < bc->sets; st++) {
                s->tc_hopflush += bc->count[st];
                bc->count[st] = 0;
            }
        }
        s->tc_gated[b] = g;
    }
}

void fp_tc_set_map(void *sv, const i64 *entries, i64 n) {
    S *s = (S *)sv;
    for (i64 i = 0; i < n; i++) s->tc_map[i] = (int)entries[i];
}

/* ---- UL2 / L1D -------------------------------------------------------- */

static i64 ul2_access(S *s, i64 address) {
    i64 line = address / s->p[P_UL2_LINE_BYTES];
    int set = (int)(line % s->ul2.sets);
    if (cache_lookup(&s->ul2, set, line)) {
        s->ul2_hits++;
        return s->p[P_UL2_HIT];
    }
    s->ul2_misses++;
    cache_insert(&s->ul2, set, line);
    return s->p[P_UL2_HIT] + s->p[P_UL2_MISS] + s->ul2_extra_miss;
}

i64 fp_ul2_access(void *sv, i64 address) { return ul2_access((S *)sv, address); }

/* UnifiedL2Cache.extra_miss_latency: the chip contention model's queueing
 * delay, set between intervals. */
void fp_ul2_set_extra_miss(void *sv, i64 cycles) { ((S *)sv)->ul2_extra_miss = cycles; }

void fp_ul2_warm(void *sv, const i64 *addrs, i64 n) {
    S *s = (S *)sv;
    for (i64 i = 0; i < n; i++) ul2_access(s, addrs[i]);
}

void fp_ul2_reset_stats(void *sv) {
    S *s = (S *)sv;
    s->ul2_hits = 0;
    s->ul2_misses = 0;
}

static int dc_access(S *s, int cl, i64 address) {
    Cache *c = &s->dl1[cl];
    i64 line = address / s->p[P_DL1_LINE_BYTES];
    int set = (int)(line % c->sets);
    if (cache_lookup(c, set, line)) return 1;
    cache_insert(c, set, line);
    return 0;
}

/* ---- stats snapshot --------------------------------------------------- */

void fp_stats(void *sv, i64 *out) {
    S *s = (S *)sv;
    int ncl = (int)s->p[P_NCL];
    out[S_CYCLE] = s->cycle;
    out[S_FETCHED] = s->s_fetched;
    out[S_COMMITTED] = s->s_committed;
    out[S_CCOPIES] = s->s_ccopies;
    out[S_COPYG] = s->s_copyg;
    out[S_COPYREQ] = s->s_copyreq;
    out[S_BRANCHES] = s->s_branches;
    out[S_MISPRED] = s->s_mispred;
    out[S_DHITS] = s->s_dhits;
    out[S_DMISS] = s->s_dmiss;
    out[S_UL2H] = s->s_ul2h;
    out[S_UL2M] = s->s_ul2m;
    out[S_RSTALL] = s->s_rstall;
    out[S_ROBSTALL] = s->s_robstall;
    out[S_FSTALL] = s->s_fstall;
    out[S_TC_HITS] = s->tc_hits;
    out[S_TC_MISSES] = s->tc_misses;
    out[S_TC_INSERTIONS] = s->tc_insertions;
    out[S_TC_HOPFLUSH] = s->tc_hopflush;
    out[S_UL2C_HITS] = s->ul2_hits;
    out[S_UL2C_MISSES] = s->ul2_misses;
    out[S_FINISHED] =
        (s->exhausted && s->lbpos >= s->lbend && s->live == 0) ? 1 : 0;
    out[S_LAST_COMMIT] = s->last_commit;
    out[S_DL_OCC] = s->dl_occ;
    out[S_DL_RQ] = s->dl_rq;
    for (int c = 0; c < ncl; c++) out[S_DISP0 + c] = s->disp[c];
}

/* ---- the core loop ---------------------------------------------------- */

static void free_rec(S *s, int ri) { s->freerec[s->nfree++] = ri; }

/* Returns 0 on target reached / finished, 1 on deadlock, 2 on internal
 * resource exhaustion (pool/calendar overflow: a bug, surfaced loudly). */
i64 fp_run_to(void *sv, i64 target, i64 gate_on, i64 gate_period) {
    S *s = (S *)sv;
    Rec *pool = s->pool;
    i64 *acc = s->acc;
    i64 *ready_flat = s->ready_flat;
    i64 *maptab = s->maptab;
    const int ncl = (int)s->p[P_NCL];
    const int reg_bits = (int)s->p[P_REG_BITS];
    const i64 reg_mask = (1LL << reg_bits) - 1;
    const int fwidth = (int)s->p[P_FWIDTH];
    const int dwidth = (int)s->p[P_DWIDTH];
    const int cwidth = (int)s->p[P_CWIDTH];
    const int iwidth = (int)s->p[P_IWIDTH];
    const i64 displat = s->p[P_DISPLAT];
    const int presched_cap = (int)s->p[P_PRESCHED_CAP];
    const i64 mp_penalty = s->p[P_MP_PENALTY];
    const int fbuf = (int)s->p[P_FBUF];
    const i64 deadlock_after = s->p[P_DEADLOCK];
    const i64 ready_off = s->p[P_READY_OFF];
    const i64 ul2_hit = s->p[P_UL2_HIT];
    const i64 dc_hit = s->p[P_DC_HIT];
    const i64 commit_lag = s->p[P_COMMIT_LAG];
    const int rob_cap = (int)s->p[P_ROB_CAP]; /* per frontend partition */
    const int mob_cap = (int)s->p[P_MOB_CAP];
    const int policy = (int)s->p[P_POLICY];
    const int n_buses = (int)s->p[P_NBUSES];
    const i64 bus_arb = s->p[P_BUS_ARB];
    const i64 bus_xfer = s->p[P_BUS_XFER];
    const int n_links = (int)s->p[P_NLINKS];
    const i64 p2p_hop = s->p[P_P2P_HOP];
    const i64 num_int = s->p[P_NUM_INT_ARCH];
    const i64 n_lines = s->n_lines;
    const i64 code_copy = s->p[P_CODE_COPY];
    const i64 code_load = s->p[P_CODE_LOAD];
    const i64 code_store = s->p[P_CODE_STORE];
    const int ncodes = (int)s->p[P_N_CODES];
    const int itlb_b = (int)s->p[P_ITLB_B];
    const int deco_b = (int)s->p[P_DECO_B];
    const int bp_b = (int)s->p[P_BP_B];
    const int ul2_b = (int)s->p[P_UL2_B];
    const int qcap_max = s->qcap_max;
    const int has_gate = gate_period > 0;

    i64 cycle = s->cycle;

    while (cycle < target) {
        if (s->exhausted && s->lbpos >= s->lbend && s->live == 0) break;

        /* ---- commit ---- */
        {
            int committed = 0;
            while (ring_len(&s->rob) && committed < cwidth) {
                int ri = (int)ring_peek(&s->rob);
                Rec *r = &pool[ri];
                if (r->comp < 0 || r->comp + commit_lag > cycle) break;
                ring_pop(&s->rob);
                s->rob_occ[r->frontend]--;
                committed++;
                acc[s->rob_b[r->frontend]]++;
                for (int i = 0; i < r->nprev; i++) {
                    i64 pr = r->prev[i];
                    ring_push(&s->free_tab[pr >> reg_bits], pr & reg_mask);
                }
                int cl = (int)r->cluster;
                s->in_flight[cl]--;
                s->s_committed++;
                s->live--;
                if (r->is_store) {
                    for (int c = 0; c < ncl; c++) s->mob_occ[c]--;
                    dc_access(s, cl, r->addr);
                    acc[s->dl1_b[cl]]++;
                } else if (r->is_load) {
                    s->mob_occ[cl]--;
                }
                free_rec(s, ri);
            }
            if (committed) s->last_commit = cycle;
        }

        /* ---- complete (writeback) ---- */
        {
            int slot = (int)(cycle % CALSZ);
            int ri = s->cal_head[slot];
            if (ri >= 0) {
                s->cal_head[slot] = s->cal_tail[slot] = -1;
                while (ri >= 0) {
                    Rec *r = &pool[ri];
                    int nxt = r->cal_next;
                    r->comp = cycle;
                    if (r->dest >= 0) acc[s->rfb[r->dest >> reg_bits]]++;
                    if (r->is_copy) {
                        s->in_flight[r->cluster]--;
                        s->s_ccopies++;
                        s->live--;
                        free_rec(s, ri);
                    }
                    if (r->mpb && s->pending == ri) {
                        i64 resume = cycle + mp_penalty;
                        if (resume > s->stall_until) s->stall_until = resume;
                        s->waiting = 0;
                        s->pending = -1;
                    }
                    ri = nxt;
                }
            }
        }

        /* ---- issue + execute ---- */
        for (int qi = 0; qi < 4 * ncl; qi++) {
            int n = s->qn[qi];
            if (!n) continue;
            int *q = s->queues + (size_t)qi * (size_t)qcap_max;
            int cl = qi >> 2;
            int width = iwidth;
            int w = 0; /* write cursor for compaction */
            for (int i = 0; i < n; i++) {
                int ri = q[i];
                Rec *r = &pool[ri];
                if (width) {
                    i64 s0 = r->src0, s1 = r->src1;
                    if ((s0 < 0 || ready_flat[s0] <= cycle)
                        && (s1 < 0 || ready_flat[s1] <= cycle)) {
                        width--;
                        acc[s->sched_flat[qi]]++;
                        if (s0 >= 0) acc[s->rfb[s0 >> reg_bits]]++;
                        if (s1 >= 0) acc[s->rfb[s1 >> reg_bits]]++;
                        i64 lat;
                        if (r->is_copy) {
                            i64 hops = cl - r->addr;
                            if (hops < 0) hops = -hops;
                            if (hops > 2) hops = 2;
                            if (hops == 0) {
                                lat = 1;
                            } else {
                                i64 start0 = cycle + 1;
                                int li = 0;
                                i64 lg = s->p2p_free[0];
                                for (int l2 = 1; l2 < n_links; l2++)
                                    if (s->p2p_free[l2] < lg) {
                                        lg = s->p2p_free[l2];
                                        li = l2;
                                    }
                                i64 start = start0 > lg ? start0 : lg;
                                i64 finish = start + hops * p2p_hop;
                                s->p2p_free[li] = start + p2p_hop;
                                lat = finish - cycle;
                                if (lat < 1) lat = 1;
                            }
                        } else if (r->is_load) {
                            acc[s->dtlb_b[cl]]++;
                            acc[s->dl1_b[cl]]++;
                            acc[s->ifu_b[cl]]++;
                            if (dc_access(s, cl, r->addr)) {
                                s->s_dhits++;
                                lat = dc_hit;
                            } else {
                                s->s_dmiss++;
                                i64 grant0 = cycle + bus_arb;
                                int bi = 0;
                                i64 bg = s->bus_free[0];
                                if (bg < grant0) bg = grant0;
                                for (int b2 = 1; b2 < n_buses; b2++) {
                                    i64 g2 = s->bus_free[b2];
                                    if (g2 < grant0) g2 = grant0;
                                    if (g2 < bg) { bg = g2; bi = b2; }
                                }
                                i64 finish = bg + bus_xfer;
                                s->bus_free[bi] = finish;
                                i64 ul2_lat = ul2_access(s, r->addr);
                                if (ul2_lat > ul2_hit) s->s_ul2m++;
                                else s->s_ul2h++;
                                acc[ul2_b]++;
                                lat = (finish - cycle) + ul2_lat + dc_hit;
                            }
                        } else if (r->is_store) {
                            acc[s->dtlb_b[cl]]++;
                            acc[s->ifu_b[cl]]++;
                            for (int c = 0; c < ncl; c++) acc[s->mob_b[c]]++;
                            lat = 1;
                        } else {
                            acc[s->fu_b[cl * ncodes + r->code]]++;
                            lat = r->lat;
                        }
                        if (lat < 1) lat = 1;
                        i64 comp = cycle + lat;
                        if (comp - cycle >= CALSZ) return 2;
                        if (r->dest >= 0) ready_flat[r->dest] = comp;
                        int slot = (int)(comp % CALSZ);
                        r->cal_next = -1;
                        if (s->cal_head[slot] < 0) {
                            s->cal_head[slot] = s->cal_tail[slot] = ri;
                        } else {
                            pool[s->cal_tail[slot]].cal_next = ri;
                            s->cal_tail[slot] = ri;
                        }
                        continue; /* issued: not kept in the queue */
                    }
                }
                q[w++] = ri;
            }
            s->qn[qi] = w;
        }

        /* ---- dispatch arrival ---- */
        for (int cl = 0; cl < ncl; cl++) {
            Ring *pipe = &s->pipes[cl];
            while (ring_len(pipe)) {
                int ri = (int)ring_peek(pipe);
                Rec *r = &pool[ri];
                if (r->arrival > cycle) break;
                int k = s->qsel[r->code];
                int qi = cl * 4 + k;
                if (s->qn[qi] >= (int)s->p[P_QCAP0 + k]) break;
                ring_pop(pipe);
                s->queues[(size_t)qi * (size_t)qcap_max + s->qn[qi]] = ri;
                s->qn[qi]++;
                acc[s->sched_flat[qi]]++;
            }
        }

        /* ---- rename / steer / dispatch ---- */
        {
            i64 arrival = cycle + displat;
            int renamed = 0;
            while (ring_len(&s->fq_ready) && renamed < dwidth) {
                if (ring_peek(&s->fq_ready) > cycle) break;
                i64 idx = ring_peek(&s->fq_idx);
                const i64 *sp = s->srcs + idx * 2;
                i64 sf0 = sp[0], sf1 = sp[1];
                int cl;
                if (policy == 0) { /* dependence */
                    int best = 0;
                    i64 best_score = -(1LL << 40);
                    for (int c = 0; c < ncl; c++) {
                        i64 locality = 0;
                        if (sf0 >= 0 && maptab[sf0 * ncl + c] >= 0) locality++;
                        if (sf1 >= 0 && maptab[sf1 * ncl + c] >= 0) locality++;
                        i64 load = s->in_flight[c];
                        i64 score = locality * 24 - load;
                        if (score > best_score
                            || (score == best_score && load < s->in_flight[best])) {
                            best_score = score;
                            best = c;
                        }
                    }
                    cl = best;
                } else if (policy == 1) { /* round robin */
                    cl = (int)s->rr;
                    s->rr++;
                    if (s->rr >= ncl) s->rr = 0;
                } else { /* least loaded */
                    cl = 0;
                    i64 best_load = s->in_flight[0];
                    for (int c = 1; c < ncl; c++)
                        if (s->in_flight[c] < best_load) {
                            cl = c;
                            best_load = s->in_flight[c];
                        }
                }
                int f = s->front_of[cl];
                if (s->rob_occ[f] >= rob_cap) {
                    s->s_robstall++;
                    break;
                }
                int b_int = cl * 2;
                i64 ineed = s->ineed[idx], fneed = s->fneed[idx];
                if (ring_len(&s->free_tab[b_int]) < ineed
                    || ring_len(&s->free_tab[b_int + 1]) < fneed) {
                    s->s_rstall++;
                    break;
                }
                if (ring_len(&s->pipes[cl]) >= presched_cap) {
                    s->s_rstall++;
                    break;
                }
                i64 code = s->cls[idx];
                int is_store = code == code_store;
                int is_load = code == code_load;
                if (is_store) {
                    int mob_ok = 1;
                    for (int c = 0; c < ncl; c++)
                        if (s->mob_occ[c] >= mob_cap) { mob_ok = 0; break; }
                    if (!mob_ok) {
                        s->s_rstall++;
                        break;
                    }
                } else if (is_load && s->mob_occ[cl] >= mob_cap) {
                    s->s_rstall++;
                    break;
                }

                ring_pop(&s->fq_ready);
                ring_pop(&s->fq_idx);
                i64 dfl = s->dest[idx];
                acc[deco_b] += ineed + fneed;
                i64 src_refs[2];
                int nsr = 0;
                int copies[2];
                int ncop = 0;
                int rat_cl = s->rat_b[cl];
                for (int si = 0; si < 2; si++) {
                    i64 flat = si == 0 ? sf0 : sf1;
                    if (flat < 0) break;
                    i64 *row = maptab + flat * ncl;
                    acc[rat_cl]++;
                    i64 local = row[cl];
                    if (local >= 0) {
                        src_refs[nsr++] = local;
                        continue;
                    }
                    /* Prefer a holder on the consumer's frontend, then the
                     * closest to the destination cluster (first match wins
                     * ties, scanning candidates in cluster order). */
                    int scl = -1;
                    i64 best_d = 0;
                    int any_same = 0;
                    for (int c = 0; c < ncl; c++)
                        if (row[c] >= 0 && s->front_of[c] == f) { any_same = 1; break; }
                    for (int c = 0; c < ncl; c++) {
                        if (row[c] < 0) continue;
                        if (any_same && s->front_of[c] != f) continue;
                        i64 d2 = c - cl;
                        if (d2 < 0) d2 = -d2;
                        if (scl < 0 || d2 < best_d) {
                            scl = c;
                            best_d = d2;
                        }
                    }
                    if (scl < 0) continue; /* no mapping anywhere */
                    i64 src_ref = row[scl];
                    int kk = flat >= num_int ? 1 : 0;
                    int b = cl * 2 + kk;
                    i64 phys = ring_pop(&s->free_tab[b]);
                    i64 new_ref = ((i64)b << reg_bits) | phys;
                    ready_flat[new_ref] = NOT_READY;
                    row[cl] = new_ref;
                    acc[s->rat_b[scl]]++;
                    acc[rat_cl]++;
                    int src_f = s->front_of[scl];
                    if (!s->nfree) return 2;
                    int cri = s->freerec[--s->nfree];
                    Rec *cr = &pool[cri];
                    cr->code = code_copy;
                    cr->cluster = scl;
                    cr->frontend = src_f;
                    cr->dest = new_ref;
                    cr->src0 = src_ref;
                    cr->src1 = -1;
                    cr->nsrc = 1;
                    cr->nprev = 0;
                    cr->comp = -1;
                    cr->addr = cl; /* copy: destination cluster */
                    cr->lat = 1;
                    cr->is_copy = 1;
                    cr->is_store = 0;
                    cr->is_load = 0;
                    cr->mpb = 0;
                    copies[ncop++] = cri;
                    src_refs[nsr++] = new_ref;
                    s->s_copyg++;
                    if (src_f != f) s->s_copyreq++;
                    s->live++;
                }
                i64 dref = -1;
                int nprev = 0;
                i64 prevs[MAX_PREV];
                if (dfl >= 0) {
                    int b = cl * 2 + (dfl >= num_int ? 1 : 0);
                    i64 phys = ring_pop(&s->free_tab[b]);
                    dref = ((i64)b << reg_bits) | phys;
                    ready_flat[dref] = NOT_READY;
                    i64 *row = maptab + dfl * ncl;
                    for (int c = 0; c < ncl; c++) {
                        if (row[c] >= 0) prevs[nprev++] = row[c];
                        row[c] = -1;
                    }
                    row[cl] = dref;
                    acc[rat_cl]++;
                }
                int mpb = s->isbr[idx] && s->mp[idx];
                if (!s->nfree) return 2;
                int ri = s->freerec[--s->nfree];
                Rec *r = &pool[ri];
                r->code = code;
                r->cluster = cl;
                r->frontend = f;
                r->dest = dref;
                r->src0 = nsr > 0 ? src_refs[0] : -1;
                r->src1 = nsr > 1 ? src_refs[1] : -1;
                r->nsrc = nsr;
                r->nprev = nprev;
                for (int i = 0; i < nprev; i++) r->prev[i] = prevs[i];
                r->comp = -1;
                r->addr = s->addr[idx];
                r->lat = s->lat[idx];
                r->arrival = arrival;
                r->is_copy = 0;
                r->is_store = is_store;
                r->is_load = is_load;
                r->mpb = mpb;
                ring_push(&s->rob, ri);
                s->rob_occ[f]++;
                acc[s->rob_b[f]]++;
                if (is_store) {
                    for (int c = 0; c < ncl; c++) {
                        s->mob_occ[c]++;
                        acc[s->mob_b[c]]++;
                    }
                } else if (is_load) {
                    s->mob_occ[cl]++;
                    acc[s->mob_b[cl]]++;
                }
                ring_push(&s->pipes[cl], ri);
                s->in_flight[cl]++;
                s->disp[cl]++;
                if (mpb && s->pending < 0) s->pending = ri;
                for (int i = 0; i < ncop; i++) {
                    Rec *cr = &pool[copies[i]];
                    cr->arrival = arrival + (cr->frontend != f ? 1 : 0);
                    ring_push(&s->pipes[cr->cluster], copies[i]);
                    s->in_flight[cr->cluster]++;
                }
                renamed++;
            }
        }

        /* ---- fetch ---- */
        if (has_gate && (cycle % gate_period) >= gate_on) {
            s->s_fstall++;
        } else if (ring_len(&s->fq_ready) < fbuf) {
            if (s->waiting || cycle < s->stall_until) {
                s->s_fstall++;
            } else {
                int fetched = 0;
                while (fetched < fwidth) {
                    if (s->lbpos >= s->lbend) {
                        if (s->line_idx >= n_lines) {
                            s->exhausted = 1;
                            break;
                        }
                        i64 li = s->line_idx++;
                        int bank, hit;
                        i64 lat = tc_access(s, s->l_pc[li], &bank, &hit);
                        acc[s->tc_b[bank]] += s->l_fc[li];
                        acc[itlb_b]++;
                        if (!hit) {
                            acc[ul2_b]++;
                            acc[s->tc_b[bank]]++;
                            i64 resume = cycle + lat;
                            if (resume > s->stall_until) s->stall_until = resume;
                        }
                        if (s->l_ex[li]) s->exhausted = 1;
                        s->lbpos = s->l_start[li];
                        s->lbend = s->l_end[li];
                        if (cycle < s->stall_until) break;
                    }
                    i64 idx = s->lbpos++;
                    fetched++;
                    s->s_fetched++;
                    acc[deco_b]++;
                    ring_push(&s->fq_ready, cycle + ready_off);
                    ring_push(&s->fq_idx, idx);
                    s->live++;
                    if (s->isbr[idx]) {
                        s->s_branches++;
                        acc[bp_b]++;
                        if (s->mp[idx]) {
                            s->s_mispred++;
                            s->waiting = 1;
                            break;
                        }
                    }
                }
            }
        }

        i64 old_cycle = cycle;
        cycle++;

        /* ---- deadlock guard ---- */
        if (old_cycle - s->last_commit > deadlock_after
            && !(s->exhausted && s->lbpos >= s->lbend && s->live == 0)) {
            s->dl_occ = ring_len(&s->rob);
            i64 rq = 0;
            i64 limit = old_cycle + 1;
            int fn = ring_len(&s->fq_ready);
            for (int i = 0; i < fn; i++) {
                if (ring_at(&s->fq_ready, i) <= limit) {
                    rq++;
                    if (rq >= fbuf) break;
                }
            }
            s->dl_rq = rq;
            s->cycle = cycle;
            return 1;
        }
    }
    s->cycle = cycle;
    return 0;
}

/* ---- workload front end ----------------------------------------------
 *
 * A twin of TraceGenerator (repro/workloads/generator.py): the static loop
 * bodies (_build_program, _pick_compute_class, random.shuffle), then the
 * dynamic walk (stream, _advance_phase, _instantiate, _pick_source,
 * _allocate_dest, _next_address), decoded in the same pass into the
 * DecodedWorkload arrays.  Every constant, derived threshold, class code
 * and latency comes from Python (generator.native_inputs and the decode
 * tables); the random stream continues from random.Random's state after
 * seeding, so only CPython's MT19937 output functions are reproduced here:
 * genrand_uint32, random() (genrand_res53) and getrandbits() with the
 * rejection loop of _randbelow. */

/* Integer inputs (keep in sync with repro/sim/native.py GEN_INT_NAMES). */
enum {
    G_NUM_HOT_LOOPS, G_PHASE_LENGTH_UOPS,
    G_NUM_LOADS, G_NUM_STORES, G_NUM_BRANCHES, G_NUM_COMPUTE,
    G_CODE_BASE, G_LOOP_PC_STRIDE, G_INSTRUCTION_BYTES,
    G_DATA_BASE, G_BYTES_PER_LOOP, G_SPAN, G_HOT_SPAN, G_WORKING_SET_BYTES,
    G_SEQUENTIAL_STRIDE, G_RECENT_WINDOW, G_RECENT_START,
    G_NUM_INT, G_NUM_FP,
    G_CODE_IALU, G_CODE_IMUL, G_CODE_IDIV,
    G_CODE_FPADD, G_CODE_FPMUL, G_CODE_FPDIV,
    G_CODE_LOAD, G_CODE_STORE, G_CODE_BRANCH,
    G_COUNT
};

/* Float inputs (keep in sync with repro/sim/native.py GEN_FLOAT_NAMES). */
enum {
    F_FP_FRACTION, F_LONG_OP_FRACTION, F_FPMUL_SHARE, F_IMUL_SHARE,
    F_BRANCH_MISPREDICTION_RATE, F_DEPENDENCY_P,
    F_SPATIAL_LOCALITY, F_IRREGULAR_BELOW, F_NEXT_REGION_PROBABILITY,
    F_COUNT
};

#define MT_N 624
#define MT_M 397

typedef struct { uint32_t mt[MT_N]; int mti; } MT;

static uint32_t mt_next(MT *r) {
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    if (r->mti >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (r->mt[kk] & 0x80000000U) | (r->mt[kk + 1] & 0x7fffffffU);
            r->mt[kk] = r->mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (r->mt[kk] & 0x80000000U) | (r->mt[kk + 1] & 0x7fffffffU);
            r->mt[kk] = r->mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (r->mt[MT_N - 1] & 0x80000000U) | (r->mt[0] & 0x7fffffffU);
        r->mt[MT_N - 1] = r->mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        r->mti = 0;
    }
    y = r->mt[r->mti++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.random(): 53-bit resolution from two draws. */
static double mt_random(MT *r) {
    uint32_t a = mt_next(r) >> 5, b = mt_next(r) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* random.getrandbits(k), 1 <= k <= 64: 32-bit words least significant
 * first, the last word keeping the top bits of its draw. */
static uint64_t mt_bits(MT *r, int k) {
    if (k <= 32) return mt_next(r) >> (32 - k);
    uint64_t low = mt_next(r);
    uint64_t high = mt_next(r) >> (64 - k);
    return low | (high << 32);
}

/* random._randbelow(n), n > 0: getrandbits(n.bit_length()) until < n. */
static i64 mt_below(MT *r, i64 n) {
    int k = 0;
    for (uint64_t v = (uint64_t)n; v; v >>= 1) k++;
    uint64_t x = mt_bits(r, k);
    while (x >= (uint64_t)n) x = mt_bits(r, k);
    return (i64)x;
}

/* The recent destinations of one register class: an append-only window
 * that drops its oldest entry beyond `cap` (a list append + pop(0)). */
typedef struct { i64 buf[64]; int head, len, cap; i64 next, num; } Recent;

static i64 recent_allocate(Recent *q) {
    i64 index = q->next % q->num;
    q->next++;
    if (q->len < q->cap) {
        q->buf[(q->head + q->len) % q->cap] = index;
        q->len++;
    } else {
        q->buf[q->head] = index;
        q->head = (q->head + 1) % q->cap;
    }
    return index;
}

/* _pick_source: a geometric distance back into the window.  The draw comes
 * first, so a walk that reaches the window's end still consumes one. */
static i64 recent_pick(Recent *q, MT *r, double p) {
    int distance = 1;
    while (mt_random(r) > p && distance < q->len) distance++;
    return q->buf[(q->head + q->len - distance) % q->cap] % q->num;
}

static i64 pick_compute(MT *r, const i64 *g, const double *f) {
    int use_fp = mt_random(r) < f[F_FP_FRACTION];
    int long_op = mt_random(r) < f[F_LONG_OP_FRACTION];
    if (use_fp) {
        if (!long_op) return g[G_CODE_FPADD];
        return mt_random(r) < f[F_FPMUL_SHARE] ? g[G_CODE_FPMUL] : g[G_CODE_FPDIV];
    }
    if (!long_op) return g[G_CODE_IALU];
    return mt_random(r) < f[F_IMUL_SHARE] ? g[G_CODE_IMUL] : g[G_CODE_IDIV];
}

i64 wl_int_param_count(void) { return G_COUNT; }
i64 wl_float_param_count(void) { return F_COUNT; }

/* Generate n uops and decode them into the caller's arrays (in the order
 * of repro.workloads.decode.ARRAY_FIELDS).  Returns 0, or -1 when the
 * inputs are out of range or memory runs out. */
i64 wl_generate(const i64 *state, const i64 *g, const double *f,
                const i64 *lat_by_code, i64 n,
                i64 *pc, i64 *cls, i64 *lat, i64 *addr,
                uint8_t *isbr, uint8_t *mp, i64 *dest, i64 *srcs,
                i64 *ineed, i64 *fneed) {
    const i64 loops = g[G_NUM_HOT_LOOPS];
    const i64 window = g[G_RECENT_WINDOW];
    if (loops <= 0 || g[G_NUM_BRANCHES] < 1 || window < 1 || window > 64
        || g[G_RECENT_START] > window || state[MT_N] < 0 || state[MT_N] > MT_N)
        return -1;
    MT r;
    for (int i = 0; i < MT_N; i++) r.mt[i] = (uint32_t)state[i];
    r.mti = (int)state[MT_N];

    /* Static program: per loop, the shuffled class mix plus the back-edge. */
    const i64 mixed = g[G_NUM_LOADS] + g[G_NUM_STORES] + g[G_NUM_BRANCHES] - 1
        + g[G_NUM_COMPUTE];
    const i64 body = mixed + 1;
    i64 *program = (i64 *)malloc(sizeof(i64) * (size_t)(loops * body));
    if (!program) return -1;
    for (i64 l = 0; l < loops; l++) {
        i64 *c = program + l * body;
        i64 k = 0;
        for (i64 i = 0; i < g[G_NUM_LOADS]; i++) c[k++] = g[G_CODE_LOAD];
        for (i64 i = 0; i < g[G_NUM_STORES]; i++) c[k++] = g[G_CODE_STORE];
        for (i64 i = 0; i < g[G_NUM_BRANCHES] - 1; i++) c[k++] = g[G_CODE_BRANCH];
        for (i64 i = 0; i < g[G_NUM_COMPUTE]; i++) c[k++] = pick_compute(&r, g, f);
        for (i64 i = mixed - 1; i >= 1; i--) {  /* random.shuffle */
            i64 j = mt_below(&r, i + 1);
            i64 t = c[i];
            c[i] = c[j];
            c[j] = t;
        }
        c[k] = g[G_CODE_BRANCH];
    }

    Recent rec_int = {{0}, 0, 0, (int)window, g[G_RECENT_START], g[G_NUM_INT]};
    Recent rec_fp = {{0}, 0, 0, (int)window, g[G_RECENT_START], g[G_NUM_FP]};
    for (i64 i = 0; i < g[G_RECENT_START]; i++) {
        rec_int.buf[rec_int.len++] = i;
        rec_fp.buf[rec_fp.len++] = i;
    }
    const double p = f[F_DEPENDENCY_P];
    const i64 fp_base = g[G_NUM_INT];  /* FP registers follow the int ones */
    i64 current = 0, in_phase = 0, seq = 0, produced = 0;

    while (produced < n) {
        const i64 *c = program + current * body;
        const i64 base_pc = g[G_CODE_BASE] + current * g[G_LOOP_PC_STRIDE];
        const i64 array_base = g[G_DATA_BASE] + current * g[G_BYTES_PER_LOOP];
        for (i64 slot = 0; slot < body; slot++) {
            const i64 u = produced;
            const i64 code = c[slot];
            i64 *sp = srcs + 2 * u;
            pc[u] = base_pc + slot * g[G_INSTRUCTION_BYTES];
            cls[u] = code;
            lat[u] = lat_by_code[code];
            addr[u] = -1;
            isbr[u] = 0;
            mp[u] = 0;
            dest[u] = -1;
            sp[0] = sp[1] = -1;
            ineed[u] = fneed[u] = 0;
            int memory = 0;
            if (code == g[G_CODE_BRANCH]) {
                isbr[u] = 1;
                if (slot != body - 1)
                    (void)mt_random(&r);  /* its direction, which decoding drops */
                mp[u] = mt_random(&r) < f[F_BRANCH_MISPREDICTION_RATE];
                sp[0] = recent_pick(&rec_int, &r, p);
                ineed[u] = 1;
            } else if (code == g[G_CODE_LOAD]) {
                dest[u] = recent_allocate(&rec_int);
                sp[0] = recent_pick(&rec_int, &r, p);
                ineed[u] = 2;
                memory = 1;
            } else if (code == g[G_CODE_STORE]) {
                sp[0] = recent_pick(&rec_int, &r, p);
                sp[1] = recent_pick(&rec_int, &r, p);
                ineed[u] = 2;
                memory = 1;
            } else if (code == g[G_CODE_FPADD] || code == g[G_CODE_FPMUL]
                       || code == g[G_CODE_FPDIV]) {
                dest[u] = fp_base + recent_allocate(&rec_fp);
                sp[0] = fp_base + recent_pick(&rec_fp, &r, p);
                sp[1] = fp_base + recent_pick(&rec_fp, &r, p);
                fneed[u] = 3;
            } else {
                dest[u] = recent_allocate(&rec_int);
                sp[0] = recent_pick(&rec_int, &r, p);
                sp[1] = recent_pick(&rec_int, &r, p);
                ineed[u] = 3;
            }
            if (memory) {  /* _next_address */
                double roll = mt_random(&r);
                if (roll < f[F_SPATIAL_LOCALITY]) {
                    seq = (seq + g[G_SEQUENTIAL_STRIDE]) % g[G_HOT_SPAN];
                    addr[u] = array_base + seq;
                } else if (roll < f[F_IRREGULAR_BELOW]) {
                    addr[u] = array_base + mt_below(&r, g[G_SPAN]);
                } else {
                    addr[u] = g[G_DATA_BASE] + mt_below(&r, g[G_WORKING_SET_BYTES]);
                }
            }
            produced++;
            in_phase++;
            if (produced >= n) break;
        }
        if (produced >= n) break;
        if (in_phase >= g[G_PHASE_LENGTH_UOPS]) {  /* _advance_phase */
            in_phase = 0;
            if (loops != 1) {
                if (mt_random(&r) < f[F_NEXT_REGION_PROBABILITY])
                    current = (current + 1) % loops;
                else
                    current = mt_below(&r, loops);
            }
        }
    }
    free(program);
    return 0;
}
