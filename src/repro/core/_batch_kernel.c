/* The compiled batch cascade kernel.
 *
 * The cascade rule of repro.core.fastsim.advance_dense plus the
 * ClusterTracker statistics (repro.core.clusters), over packed arrays;
 * checked against CascadeModel and the DES by
 * tests/test_engine_differential.py.  See repro/core/_batch_kernel.py
 * for the state layout and the resumability contract.  Built by
 * _batch_kernel._build() with -ffp-contract=off -fno-fast-math: every
 * float operation must round exactly like the python backend (no fused
 * multiply-adds, no reassociation).  Lehmer arithmetic stays in int64
 * (products < 2^46 here).
 */

#include <math.h>
#include <stdint.h>

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

#define STATUS_HORIZON 0
#define STATUS_STOPPED 1
#define STATUS_ROUNDS_FULL 2
#define STATUS_GROUPS_FULL 3

int64_t repro_advance_member(
    double *expiry,
    int64_t *rng,
    int64_t n,
    double tc,
    double low,
    double span,
    double tol,
    double until,
    int64_t stop_sync,
    int64_t stop_unsync,
    int64_t keep_history,
    double *fstate,
    int64_t *istate,
    int64_t *win_sizes,
    int64_t *win_cnts,
    int64_t *win_meta,
    double *ftal,
    double *ftam,
    double *round_times,
    int64_t *round_largest,
    int64_t *round_meta,
    int64_t rt_cap,
    double *group_times,
    int64_t *group_sizes,
    int64_t *group_meta,
    int64_t gt_cap,
    int64_t *idx_scratch,
    double *time_scratch)
{
    const int64_t cap = n + 1;

    double now = fstate[0];
    double open_time = fstate[1];
    int64_t open_size = istate[I_OPEN_SIZE];
    int64_t wres = istate[I_WINDOW_RESETS];
    int64_t wmax = istate[I_WMAX];
    int64_t ftal_max = istate[I_FTAL_MAX];
    int64_t ftam_min = istate[I_FTAM_MIN];
    int64_t rfill = istate[I_ROUND_FILL];
    int64_t rmax = istate[I_ROUND_MAX];
    int64_t head = win_meta[0];
    int64_t count = win_meta[1];

    int64_t status = -1;
    while (1) {
        /* Headroom reservation: one round slot, two group slots. */
        if (round_meta[0] + 1 > rt_cap) {
            status = STATUS_ROUNDS_FULL;
            break;
        }
        if (keep_history != 0 && group_meta[0] + 2 > gt_cap) {
            status = STATUS_GROUPS_FULL;
            break;
        }

        /* First minimum in node order == heap (time, node) order. */
        double e1 = expiry[0];
        int64_t i1 = 0;
        for (int64_t i = 1; i < n; i++) {
            if (expiry[i] < e1) {
                e1 = expiry[i];
                i1 = i;
            }
        }
        if (e1 > until) {
            if (now < until) {
                now = until;
            }
            status = STATUS_HORIZON;
            break;
        }

        expiry[i1] = INFINITY;
        idx_scratch[0] = i1;
        time_scratch[0] = e1;
        int64_t g = 1;
        double window = e1 + tc;
        while (1) {
            double e = expiry[0];
            int64_t ii = 0;
            for (int64_t i = 1; i < n; i++) {
                if (expiry[i] < e) {
                    e = expiry[i];
                    ii = i;
                }
            }
            if (e > window) {
                break;
            }
            expiry[ii] = INFINITY;
            idx_scratch[g] = ii;
            time_scratch[g] = e;
            g += 1;
            window += tc;
        }
        if (window > until) {
            /* Busy period outlives the horizon: restore and stop. */
            for (int64_t j = 0; j < g; j++) {
                expiry[idx_scratch[j]] = time_scratch[j];
            }
            now = until;
            status = STATUS_HORIZON;
            break;
        }

        istate[I_TOTAL_CASCADES] += 1;
        now = window;
        double t = window;

        /* Fused tracker: record_reset x g at time t. */
        int64_t s;
        int64_t li;
        if (open_time == open_time && fabs(t - open_time) <= tol) {
            s = open_size;
            li = head + count - 1;
            if (li >= cap) {
                li -= cap;
            }
        } else {
            if (open_time == open_time) {
                if (keep_history != 0) {
                    int64_t gi = group_meta[0];
                    group_times[gi] = open_time;
                    group_sizes[gi] = open_size;
                    group_meta[0] = gi + 1;
                }
            }
            li = head + count;
            if (li >= cap) {
                li -= cap;
            }
            win_sizes[li] = 0;
            win_cnts[li] = 0;
            count += 1;
            s = 0;
        }
        for (int64_t k = 0; k < g; k++) {
            s += 1;
            win_sizes[li] = s;
            win_cnts[li] += 1;
            wres += 1;
            if (s > wmax) {
                wmax = s;
            }
            while (wres > n) {
                win_cnts[head] -= 1;
                wres -= 1;
                if (win_cnts[head] == 0) {
                    int64_t esize = win_sizes[head];
                    head += 1;
                    if (head >= cap) {
                        head -= cap;
                    }
                    count -= 1;
                    if (esize >= wmax && wmax > 1) {
                        wmax = 1;
                        int64_t q = head;
                        for (int64_t w = 0; w < count; w++) {
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
                for (int64_t v = wmax; v < ftam_min; v++) {
                    ftam[v] = t;
                }
                ftam_min = wmax;
            }
            rfill += 1;
            if (s > rmax) {
                rmax = s;
            }
            if (rfill >= n) {
                int64_t ri = round_meta[0];
                round_times[ri] = t;
                round_largest[ri] = rmax;
                round_meta[0] = ri + 1;
                rfill = 0;
                rmax = 0;
            }
        }
        open_time = t;
        open_size = s;
        istate[I_TOTAL_RESETS] += g;

        /* Redraw, in pop order. */
        for (int64_t j = 0; j < g; j++) {
            int64_t i = idx_scratch[j];
            int64_t state = (MUL * rng[i]) % MOD;
            rng[i] = state;
            expiry[i] = window + (low + span * ((double)state / (double)MOD));
        }

        if (stop_sync != 0 && (s >= n || (wres >= n && wmax >= n))) {
            status = STATUS_STOPPED;
            break;
        }
        if (stop_unsync != 0 && wres >= n && wmax <= 1) {
            status = STATUS_STOPPED;
            break;
        }
    }

    if (status == STATUS_HORIZON || status == STATUS_STOPPED) {
        /* ClusterTracker.finish(): close the trailing open group. */
        if (open_time == open_time) {
            if (keep_history != 0) {
                int64_t gi = group_meta[0];
                group_times[gi] = open_time;
                group_sizes[gi] = open_size;
                group_meta[0] = gi + 1;
            }
            open_time = NAN;
            open_size = 0;
        }
    }

    fstate[0] = now;
    fstate[1] = open_time;
    istate[I_OPEN_SIZE] = open_size;
    istate[I_WINDOW_RESETS] = wres;
    istate[I_WMAX] = wmax;
    istate[I_FTAL_MAX] = ftal_max;
    istate[I_FTAM_MIN] = ftam_min;
    istate[I_ROUND_FILL] = rfill;
    istate[I_ROUND_MAX] = rmax;
    win_meta[0] = head;
    win_meta[1] = count;
    return status;
}
