/* The compiled batch cascade kernel: one entry point, repro_advance.
 *
 * The graph-coupled cascade rule of repro.topo.advance_coupled plus
 * the ClusterTracker statistics (repro.core.clusters), over packed
 * arrays.  A complete coupling is the case with no adjacency
 * (nphases == 0), as coupling=None is for advance_coupled: every node
 * hears every reset and at most one cascade is ever open.  Pending
 * expiries wait in a ring sorted by (expiry, node), the heap's pop
 * order: a join pops its head, a redraw walks back from its tail.
 * Checked against CascadeModel and the DES by
 * tests/test_engine_differential.py.  See repro/core/_batch_kernel.py
 * for the state layout and the restore-on-return contract.  Built by
 * _batch_kernel._build() with -ffp-contract=off -fno-fast-math: every
 * float operation must round exactly like the python backend (no fused
 * multiply-adds, no reassociation).  Lehmer arithmetic stays in int64
 * (products < 2^46 here).  The kernel calls nothing, so it includes
 * no header and links no library (-nostdlib): a cold build is part of
 * every fresh process's set-up, and with the standard headers and -lm
 * it took about 1.17x as long (gcc 12, x86-64).
 */

typedef long long i64; /* 64 bits on every ABI ctypes.c_int64 runs on */

#define MOD 2147483647LL
#define MUL 16807LL

#define I_OPEN_SIZE 0
#define I_WINDOW_RESETS 1
#define I_WMAX 2
#define I_FTAL_MAX 3
#define I_FTAM_MIN 4
#define I_ROUND_FILL 5
#define I_ROUND_MAX 6
#define I_TOTAL_RESETS 7
#define I_TOTAL_CASCADES 8
#define I_WIN_HEAD 9
#define I_WIN_COUNT 10
#define I_ROUNDS 11
#define I_GROUPS 12
#define I_LEN 13

#define STATUS_HORIZON 0
#define STATUS_STOPPED 1
#define STATUS_ROUNDS_FULL 2
#define STATUS_GROUPS_FULL 3
#define STATUS_PHASE_RANGE 4

/* One member (MemberState).  fbuf = [now, open_time, expiry[n],
 * ftal[n+1], ftam[n+1]]; ibuf = [istate[I_LEN], rng[n],
 * win_sizes[n+1], win_cnts[n+1]]. */
typedef struct {
    double *fbuf;
    i64 *ibuf;
    double *round_times;
    i64 *round_largest;
    i64 round_cap;
    double *group_times;
    i64 *group_sizes;
    i64 group_cap;
} member_t;

/* What every member of one batch shares (RunState): parameters, the
 * per-phase CSR adjacency and the cascade scratch, fscratch =
 * [window[n]] and iscratch = [owner[n], next[n], last[n], rank[n],
 * order[n], ring[n]].  A cascade lives in the slot of the node that
 * opened it; rank is its creation order within the call.  Before each
 * call the caller fills ring with every node sorted by (expiry, node). */
typedef struct {
    i64 n;
    double tc;
    double low;
    double span;
    double tol;
    double until;
    i64 stop_sync;
    i64 stop_unsync;
    i64 keep_history;
    i64 nphases;
    double period;
    const i64 *row_ptr;
    const i64 *cols;
    double *fscratch;
    i64 *iscratch;
} run_t;

i64 repro_advance(member_t *m, const run_t *r)
{
    const i64 n = r->n;
    const i64 cap = n + 1;
    const double tc = r->tc;
    const double low = r->low;
    const double span = r->span;
    const double tol = r->tol;
    const double until = r->until;
    const i64 keep = r->keep_history;
    const i64 nphases = r->nphases;
    double *const fstate = m->fbuf;
    double *const expiry = fstate + 2;
    double *const ftal = expiry + n;
    double *const ftam = ftal + cap;
    i64 *const st = m->ibuf;
    i64 *const rng = st + I_LEN;
    i64 *const win_sizes = rng + n;
    i64 *const win_cnts = win_sizes + cap;
    double *const round_times = m->round_times;
    i64 *const round_largest = m->round_largest;
    double *const group_times = m->group_times;
    i64 *const group_sizes = m->group_sizes;
    double *const window = r->fscratch;
    i64 *const owner = r->iscratch;
    i64 *const next = owner + n;
    i64 *const last = next + n;
    i64 *const rank = last + n;
    i64 *const order = rank + n;
    i64 *const ring = order + n;

    double now = fstate[0];
    double open_time = fstate[1];
    i64 open_size = st[I_OPEN_SIZE];
    i64 wres = st[I_WINDOW_RESETS];
    i64 wmax = st[I_WMAX];
    i64 ftal_max = st[I_FTAL_MAX];
    i64 ftam_min = st[I_FTAM_MIN];
    i64 rfill = st[I_ROUND_FILL];
    i64 rmax = st[I_ROUND_MAX];
    i64 resets = st[I_TOTAL_RESETS];
    i64 closes = st[I_TOTAL_CASCADES];
    i64 head = st[I_WIN_HEAD];
    i64 count = st[I_WIN_COUNT];
    i64 rounds = st[I_ROUNDS];
    i64 groups = st[I_GROUPS];

    i64 active = 0; /* open cascades' slots are order[0..active) */
    i64 created = 0;
    i64 status;

    /* The pending (not joined) nodes are ring[ph..ph+pn), indices mod
     * n; on entry all n are, sorted by the caller. */
    i64 ph = 0;
    i64 pn = n;

    while (1) {
        const i64 v = ring[ph];
        const double e = expiry[v];
        /* The earliest window closes first; ties in creation order. */
        double close_t = __builtin_inf();
        i64 c = -1;
        i64 ci = -1;
        for (i64 j = 0; j < active; j++) {
            i64 k = order[j];
            if (window[k] < close_t || (window[k] == close_t && rank[k] < rank[c])) {
                close_t = window[k];
                c = k;
                ci = j;
            }
        }

        if (pn > 0 && e <= close_t && e <= until) {
            /* Every open window is >= e (an expiry goes before a close
             * on ties), so only adjacency at time e decides: join the
             * earliest-created cascade holding a neighbour of v.  With
             * no adjacency at most one cascade is open, order[0]. */
            c = nphases == 0 && active > 0 ? order[0] : -1;
            if (nphases > 0 && active > 0) {
                /* The phase in force at e, int(e / period) % nphases
                 * as Coupling.adjacency_at computes it (period is +inf
                 * for a static graph). */
                double q = e / r->period;
                i64 phase;
                if (q < 0x1p63) {
                    phase = (i64)q % nphases;
                } else if (q < __builtin_inf()) {
                    /* A whole number past i64: binary long division
                     * gives its exact remainder (each subtraction has
                     * s <= q < 2s, so it is exact). */
                    double s = (double)nphases;
                    while (s * 2.0 <= q) {
                        s *= 2.0;
                    }
                    for (; s >= nphases; s *= 0.5) {
                        if (q >= s) {
                            q -= s;
                        }
                    }
                    phase = (i64)q;
                } else { /* int(inf) overflows in Python too */
                    status = STATUS_PHASE_RANGE;
                    break;
                }
                const i64 *row = r->row_ptr + phase * cap;
                for (i64 p = row[v]; p < row[v + 1]; p++) {
                    i64 s = owner[r->cols[p]];
                    if (s >= 0 && (c < 0 || rank[s] < rank[c])) {
                        c = s;
                    }
                }
            }
            ph = ph + 1 < n ? ph + 1 : 0;
            pn -= 1;
            next[v] = -1;
            if (c >= 0) {
                next[last[c]] = v;
            } else {
                c = v;
                window[c] = e;
                rank[c] = created++;
                order[active++] = c;
            }
            window[c] += tc; /* e + tc when opening: the same rounding */
            last[c] = v;
            owner[v] = c;
            continue;
        }
        /* Nothing closes at or before the horizon.  Written so that
         * a NaN horizon (or NaN windows) returns here too: the close
         * below needs a cascade, c >= 0. */
        if (c < 0 || !(close_t <= until)) {
            status = STATUS_HORIZON;
            break;
        }
        /* Headroom for one close: one round slot, two group slots. */
        if (rounds + 1 > m->round_cap) {
            status = STATUS_ROUNDS_FULL;
            break;
        }
        if (keep != 0 && groups + 2 > m->group_cap) {
            status = STATUS_GROUPS_FULL;
            break;
        }

        /* Close cascade c at its window t. */
        order[ci] = order[--active];
        const double t = close_t;
        closes += 1;
        now = t;

        /* ClusterTracker.record_reset for each member in join order,
         * each followed by the member's redraw (tracker and streams do
         * not interact, so this equals recording all, then drawing
         * all).  A reset within tol of the open group's *first* reset
         * joins that group; any other opens a new group and window
         * entry. */
        i64 s = open_size;
        if (!(open_time == open_time && __builtin_fabs(t - open_time) <= tol)) {
            if (open_time == open_time && keep != 0) {
                group_times[groups] = open_time;
                group_sizes[groups] = open_size;
                groups += 1;
            }
            open_time = t;
            count += 1;
            s = 0;
        }
        i64 li = head + count - 1;
        if (li >= cap) {
            li -= cap;
        }
        if (s == 0) {
            win_cnts[li] = 0;
        }
        for (i64 u = c; u >= 0; u = next[u]) {
            i64 state = (MUL * rng[u]) % MOD;
            rng[u] = state;
            expiry[u] = t + (low + span * ((double)state / (double)MOD));
            owner[u] = -1;
            /* Into the ring by walking back from its tail: a redraw
             * lands after nearly every pending expiry. */
            i64 j = ph + pn < n ? ph + pn : ph + pn - n;
            for (i64 k = pn; k > 0; k--) {
                i64 p = j > 0 ? j - 1 : n - 1;
                i64 w = ring[p];
                if (expiry[w] < expiry[u] || (expiry[w] == expiry[u] && w < u)) {
                    break;
                }
                ring[j] = w;
                j = p;
            }
            ring[j] = u;
            pn += 1;
            s += 1;
            win_sizes[li] = s;
            win_cnts[li] += 1;
            wres += 1;
            resets += 1;
            if (s > wmax) {
                wmax = s;
            }
            if (wres > n) { /* evict the oldest reset; wres was <= n */
                win_cnts[head] -= 1;
                wres -= 1;
                if (win_cnts[head] == 0) {
                    i64 esize = win_sizes[head];
                    head += 1;
                    if (head >= cap) {
                        head -= cap;
                    }
                    count -= 1;
                    if (esize >= wmax && wmax > 1) {
                        wmax = 1;
                        i64 q = head;
                        for (i64 w = 0; w < count; w++) {
                            if (win_sizes[q] > wmax) {
                                wmax = win_sizes[q];
                            }
                            q += 1;
                            if (q >= cap) {
                                q -= cap;
                            }
                        }
                    }
                }
            }
            if (s > ftal_max) {
                ftal[s] = t;
                ftal_max = s;
            }
            if (wres >= n && wmax < ftam_min) {
                for (i64 x = wmax; x < ftam_min; x++) {
                    ftam[x] = t;
                }
                ftam_min = wmax;
            }
            rfill += 1;
            if (s > rmax) {
                rmax = s;
            }
            if (rfill >= n) {
                round_times[rounds] = t;
                round_largest[rounds] = rmax;
                rounds += 1;
                rfill = 0;
                rmax = 0;
            }
        }
        open_size = s;

        if ((r->stop_sync != 0 && (s >= n || (wres >= n && wmax >= n)))
            || (r->stop_unsync != 0 && wres >= n && wmax <= 1)) {
            status = STATUS_STOPPED;
            break;
        }
    }

    /* No cascade outlives the call.  A joined node keeps its expiry
     * until its cascade closes, so the open ones' members still hold
     * their original expiries and the next call replays them exactly. */
    for (i64 a = 0; a < active; a++) {
        for (i64 u = order[a]; u >= 0; u = next[u]) {
            owner[u] = -1;
        }
    }
    if (status == STATUS_HORIZON && now < until) {
        now = until;
    }
    if (status <= STATUS_STOPPED && open_time == open_time) {
        /* ClusterTracker.finish(): close the trailing open group. */
        if (keep != 0) {
            group_times[groups] = open_time;
            group_sizes[groups] = open_size;
            groups += 1;
        }
        open_time = __builtin_nan("");
        open_size = 0;
    }

    fstate[0] = now;
    fstate[1] = open_time;
    st[I_OPEN_SIZE] = open_size;
    st[I_WINDOW_RESETS] = wres;
    st[I_WMAX] = wmax;
    st[I_FTAL_MAX] = ftal_max;
    st[I_FTAM_MIN] = ftam_min;
    st[I_ROUND_FILL] = rfill;
    st[I_ROUND_MAX] = rmax;
    st[I_TOTAL_RESETS] = resets;
    st[I_TOTAL_CASCADES] = closes;
    st[I_WIN_HEAD] = head;
    st[I_WIN_COUNT] = count;
    st[I_ROUNDS] = rounds;
    st[I_GROUPS] = groups;
    return status;
}
