/* Compiled search kernels: the fast twin of cfhyper._kernels_py.
 *
 * Same deterministic search order and node accounting as the Python
 * reference, over flat int arrays; cfhyper._kernels_c builds this file and
 * calls it through ctypes. No Python headers are involved. The caller
 * guarantees every vertex id is in [0, n) and 0 <= k <= n; return codes
 * below 0 mean an allocation failed.
 */
#include <stdlib.h>

enum { FOUND = 0, UNSAT = 1, BUDGET = 2, NOMEM = -1 };
enum { VAL_IN = 1, VAL_OUT = 2, MODE_PROPER = 1 };

typedef struct {
    const int *eu, *ev, *lo, *hi;
    int *vptr, *vedges, *state, *chosen, *undec, *trail;
    int trail_len;
    int *pend;  /* (edge, value) pairs forced by propagation */
    size_t pend_len, pend_cap;
} DCState;

/* 0 dead end, 1 fine, NOMEM; may queue the vertex's forced edges */
static int check_vertex(DCState *s, int v) {
    int c = s->chosen[v], u = s->undec[v], t1 = s->lo[v], t2 = s->hi[v];
    int ok1 = c <= t1 && t1 <= c + u;
    int ok2 = t1 != t2 && c <= t2 && t2 <= c + u;
    int t, val, j, e, end;
    if (!ok1 && !ok2) return 0;
    if ((ok1 && ok2) || u == 0) return 1;
    t = ok1 ? t1 : t2;
    if (t == c) val = VAL_OUT;
    else if (t == c + u) val = VAL_IN;
    else return 1;
    for (j = s->vptr[v], end = s->vptr[v + 1]; j < end; j++) {
        e = s->vedges[j];
        if (s->state[e] != 0) continue;
        if (s->pend_len == s->pend_cap) {
            int *grown = realloc(s->pend, 4 * s->pend_cap * sizeof(int));
            if (grown == NULL) return NOMEM;
            s->pend = grown;
            s->pend_cap *= 2;
        }
        s->pend[2 * s->pend_len] = e;
        s->pend[2 * s->pend_len++ + 1] = val;
    }
    return 1;
}

static int assign(DCState *s, int e, int val) {
    int st = s->state[e], a = s->eu[e], b = s->ev[e], r;
    if (st != 0) return st == val;
    s->state[e] = val;
    s->trail[s->trail_len++] = e;
    s->undec[a]--;
    s->undec[b]--;
    if (val == VAL_IN) {
        s->chosen[a]++;
        s->chosen[b]++;
    }
    r = check_vertex(s, a);
    return r != 1 ? r : check_vertex(s, b);
}

static int run_queue(DCState *s) {
    size_t qi;
    int r;
    for (qi = 0; qi < s->pend_len; qi++)
        if ((r = assign(s, s->pend[2 * qi], s->pend[2 * qi + 1])) != 1) return r;
    return 1;
}

static void undo_to(DCState *s, int mark) {
    while (s->trail_len > mark) {
        int e = s->trail[--s->trail_len], a = s->eu[e], b = s->ev[e];
        s->undec[a]++;
        s->undec[b]++;
        if (s->state[e] == VAL_IN) {
            s->chosen[a]--;
            s->chosen[b]--;
        }
        s->state[e] = 0;
    }
}

/* See cfhyper._kernels_py.solve_degree_constrained. data holds eu, ev
 * (m each), lo, hi (n each) and room for the 0/1 selection (m), written
 * when FOUND; the branch decisions made go to *nodes. */
int cfh_solve(int n, int m, int *data, long long budget, long long *nodes) {
    DCState s = {.eu = data, .ev = data + m, .lo = data + 2 * m, .hi = data + 2 * m + n};
    int *selection = data + 2 * m + 2 * n;
    int *mem = calloc((size_t)n * 4 + (size_t)m * 7 + 1, sizeof(int));
    int *fill, *frames, *top, i, v, r = 1, scan = 0, depth = 0, status = NOMEM;

    *nodes = 0;
    s.pend_cap = 4 * (size_t)m + 16;
    s.pend = malloc(2 * s.pend_cap * sizeof(int));
    if (mem == NULL || s.pend == NULL) goto done;
    s.vptr = mem;              /* n + 1 */
    s.chosen = s.vptr + n + 1; /* n */
    s.undec = s.chosen + n;    /* n */
    fill = s.undec + n;        /* n */
    s.vedges = fill + n;       /* 2m */
    s.state = s.vedges + 2 * m;
    s.trail = s.state + m;
    frames = s.trail + m;      /* 3m: edge, next phase, trail mark */

    for (i = 0; i < m; i++) {
        s.undec[s.eu[i]]++;
        s.undec[s.ev[i]]++;
    }
    for (v = 0; v < n; v++) {
        s.vptr[v + 1] = s.vptr[v] + s.undec[v];
        fill[v] = s.vptr[v];
    }
    for (i = 0; i < m; i++) {
        s.vedges[fill[s.eu[i]]++] = i;
        s.vedges[fill[s.ev[i]]++] = i;
    }

    /* root propagation: unconditional forcings and degree sanity */
    for (v = 0; v < n && r == 1; v++) r = check_vertex(&s, v);
    if (r == 1) r = run_queue(&s);
    if (r != 1) {
        if (r == 0) status = UNSAT;
        goto done;
    }

    for (;;) {
        while (scan < m && s.state[scan] != 0) scan++;
        if (scan == m) {
            for (i = 0; i < m; i++) selection[i] = s.state[i] == VAL_IN;
            status = FOUND;
            goto done;
        }
        top = frames + 3 * depth++;
        top[0] = scan;
        top[1] = 0;
        top[2] = s.trail_len;
        for (;;) {
            top = frames + 3 * (depth - 1);
            if (top[1] == 2) {
                if (--depth == 0) {
                    status = UNSAT;
                    goto done;
                }
                undo_to(&s, top[-1]);
                top[-2]++;
                continue;
            }
            if (++*nodes > budget) {
                status = BUDGET;
                goto done;
            }
            s.pend_len = 1;
            s.pend[0] = top[0];
            s.pend[1] = top[1] == 0 ? VAL_IN : VAL_OUT;
            if ((r = run_queue(&s)) == 1) {
                scan = top[0] + 1;
                break;
            }
            if (r != 0) goto done;
            undo_to(&s, top[2]);
            top[1]++;
        }
    }
done:
    free(mem);
    free(s.pend);
    return status;
}

/* whether the edge with vertices first[0 .. last - first) passes */
static int edge_ok(const int *first, const int *last, const int *colors, int *cnt,
                   int mode) {
    const int *p;
    int ok = 0;
    if (mode == MODE_PROPER) {
        for (p = first; p < last; p++)
            if (colors[*p] != colors[*first]) return 1;
        return 0;
    }
    for (p = first; p < last; p++) cnt[colors[*p]]++;
    for (p = first; p < last && !ok; p++) ok = cnt[colors[*p]] == 1;
    for (p = first; p < last; p++) cnt[colors[*p]] = 0;
    return ok;
}

/* See cfhyper._kernels_py.color_search. data holds eptr (m + 1), everts
 * (eptr[m]) and n zeroed colors; edge i is everts[eptr[i] .. eptr[i + 1]).
 * Returns 1 with the coloring in place, 0 when none exists, or NOMEM. */
int cfh_color(int n, int m, int k, int mode, int *data, long long *nodes) {
    const int *eptr = data, *everts = data + m + 1;
    int total = eptr[m], *colors = data + m + 1 + total, found, i, j, v, c, e, limit, ok;
    int first, last;
    int *vptr, *vinc, *vfill, *uncolored, *attempt, *maxused, *cnt;

    *nodes = 0;
    if (n == 0) return 1;
    /* one allocation per array, as the compiler may then assume they do
     * not alias: this search ran about 10% faster than with the arrays
     * carved out of one block */
    vptr = calloc(n + 1, sizeof(int));
    vfill = calloc(n, sizeof(int));
    attempt = calloc(n, sizeof(int));
    maxused = calloc(n + 1, sizeof(int));
    cnt = calloc(k + 2, sizeof(int));
    uncolored = calloc(m + 1, sizeof(int));
    vinc = calloc(total + 1, sizeof(int));
    found = NOMEM;
    if (!vptr || !vfill || !attempt || !maxused || !cnt || !uncolored || !vinc) goto done;

    for (j = 0; j < total; j++) vfill[everts[j]]++;
    for (v = 0; v < n; v++) {
        vptr[v + 1] = vptr[v] + vfill[v];
        vfill[v] = vptr[v];
    }
    for (i = 0; i < m; i++) {
        uncolored[i] = eptr[i + 1] - eptr[i];
        for (j = eptr[i]; j < eptr[i + 1]; j++) vinc[vfill[everts[j]]++] = i;
    }

    /* loop bounds live in locals: the int arrays written in the loops
     * could alias vptr as far as the compiler knows */
    for (v = 0;;) {
        first = vptr[v];
        last = vptr[v + 1];
        limit = maxused[v] + 1 < k ? maxused[v] + 1 : k;
        for (c = attempt[v] + 1, ok = 0; c <= limit; c++) {
            ++*nodes;
            /* place v with color c, checking the edges it completes */
            colors[v] = c;
            for (j = first; j < last; j++) uncolored[vinc[j]]--;
            for (j = first, ok = 1; j < last && ok; j++) {
                e = vinc[j];
                ok = uncolored[e] != 0
                     || edge_ok(everts + eptr[e], everts + eptr[e + 1], colors, cnt, mode);
            }
            if (ok) break;
            for (j = first; j < last; j++) uncolored[vinc[j]]++;
            colors[v] = 0;
        }
        if (ok) {
            attempt[v] = c;
            maxused[v + 1] = c <= maxused[v] ? maxused[v] : c;
            if (++v == n) {
                found = 1;
                break;
            }
            attempt[v] = 0;
        } else {
            attempt[v] = 0;
            if (v == 0) {
                found = 0;
                break;
            }
            v--;
            for (j = vptr[v], last = vptr[v + 1]; j < last; j++) uncolored[vinc[j]]++;
            colors[v] = 0;
        }
    }
done:
    free(vptr);
    free(vfill);
    free(attempt);
    free(maxused);
    free(cnt);
    free(uncolored);
    free(vinc);
    return found;
}
