/* Compiled kernels: the fast twin of cfhyper._kernels_py, plus an edge
 * line parser for cfhyper.graph_io (cfh_parse, at the end).
 *
 * The searches keep the same deterministic order and node accounting as
 * the Python reference, over flat int arrays; cfhyper._kernels_c builds
 * this file and calls it through ctypes. No Python headers are involved.
 * The searches and the edge passes take their edges as (ends, ids), edge
 * e being ids[ends[e] .. ends[e + 1]), and check every index they read
 * themselves; return codes below 0 mean an allocation failed or an input
 * was out of range.
 */
#include <stdlib.h>

enum { FOUND = 0, UNSAT = 1, BUDGET = 2, NOMEM = -1, BADINPUT = -2, BADCOLOR = -3 };
enum { VAL_IN = 1, VAL_OUT = 2, MODE_PROPER = 1, MODE_CONFLICT_FREE = 0 };

/* whether edge e < m lies in ids (nids), each of its ids in [0, n) */
static int edge_in_range(int e, int m, const int *ends, int nids, const int *ids, int n) {
    int j;
    if (e < 0 || e >= m || ends[e] < 0 || ends[e] > ends[e + 1] || ends[e + 1] > nids)
        return 0;
    for (j = ends[e]; j < ends[e + 1]; j++)
        if (ids[j] < 0 || ids[j] >= n) return 0;
    return 1;
}

/* See cfhyper._kernels_py.incidence: a counting sort, vertex v's edges
 * going to vedges[vptr[v] .. vptr[v + 1]); vedges has room for ends[m] -
 * ends[0]. Returns 0, or BADINPUT for an edge or id out of range. */
int cfh_incidence(int n, int m, const int *ends, int nids, const int *ids, int *vptr,
                  int *vedges) {
    int e, j, v;
    for (e = 0; e < m; e++)
        if (!edge_in_range(e, m, ends, nids, ids, n)) return BADINPUT;
    for (v = 0; v <= n; v++) vptr[v] = 0;
    for (j = m ? ends[0] : 0; j < (m ? ends[m] : 0); j++) vptr[ids[j] + 1]++;
    for (v = 0; v < n; v++) vptr[v + 1] += vptr[v];
    /* vptr[v] is v's fill cursor, so afterwards it holds v + 1's offset */
    for (e = 0; e < m; e++)
        for (j = ends[e]; j < ends[e + 1]; j++) vedges[vptr[ids[j]]++] = e;
    for (v = n; v > 0; v--) vptr[v] = vptr[v - 1];
    vptr[0] = 0;
    return 0;
}

typedef struct {
    const int *uv; /* edge e joins uv[2e] and uv[2e + 1] */
    int *vptr, *vedges, *state, *chosen, *undec, *trail;
    int *nxt; /* per vertex v, at vptr[v] + 2v: least allowed degree >= d
                 for d in 0 .. deg(v) + 1, or deg(v) + 1 when none is */
    int trail_len;
    int *pend;  /* (edge, value) pairs forced by propagation */
    size_t pend_len, pend_cap;
} DCState;

/* 0 dead end, 1 fine, NOMEM; may queue the vertex's forced edges */
static int check_vertex(DCState *s, int v) {
    int c = s->chosen[v], u = s->undec[v], *row = s->nxt + s->vptr[v] + 2 * v;
    int t = row[c], val, j, e, end; /* t: the first reachable target, if any */
    if (t > c + u) return 0;
    if (u == 0 || row[t + 1] <= c + u) return 1; /* a second one is reachable */
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
    int st = s->state[e], a = s->uv[2 * e], b = s->uv[2 * e + 1], r;
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
        int e = s->trail[--s->trail_len], a = s->uv[2 * e], b = s->uv[2 * e + 1];
        s->undec[a]++;
        s->undec[b]++;
        if (s->state[e] == VAL_IN) {
            s->chosen[a]--;
            s->chosen[b]--;
        }
        s->state[e] = 0;
    }
}

/* See cfhyper._kernels_py.solve_degree_constrained. Each edge has 2 ids;
 * vertex v's allowed degrees are avals[aptr[v] .. aptr[v + 1]), each in
 * 0 .. m, those above deg(v) ignored. When FOUND the 0/1 selection goes
 * to selection (m); the branch decisions made go to *nodes. Returns
 * BADINPUT for an edge, id or allowed degree out of range or an edge of
 * another size. */
int cfh_solve(int n, int m, const int *ends, int nids, const int *ids, const int *aptr,
              int navals, const int *avals, long long budget, long long *nodes,
              int *selection) {
    DCState s = {0};
    int *mem = calloc((size_t)n * 5 + (size_t)m * 7 + (size_t)nids + 1, sizeof(int));
    int *frames, *top, *row, i, v, d, r = 1, scan = 0, depth = 0, status = NOMEM;

    *nodes = 0;
    s.pend_cap = 4 * (size_t)m + 16;
    s.pend = malloc(2 * s.pend_cap * sizeof(int));
    if (mem == NULL || s.pend == NULL) goto done;
    s.vptr = mem;              /* n + 1 */
    s.chosen = s.vptr + n + 1; /* n */
    s.undec = s.chosen + n;    /* n */
    s.state = s.undec + n;     /* m */
    s.trail = s.state + m;     /* m */
    frames = s.trail + m;      /* 3m: edge, next phase, trail mark */
    s.nxt = frames + 3 * m;    /* 2m + 2n */
    s.vedges = s.nxt + 2 * m + 2 * n; /* ends[m] - ends[0] <= nids */

    status = BADINPUT;
    if (cfh_incidence(n, m, ends, nids, ids, s.vptr, s.vedges)) goto done;
    for (i = 0; i < m; i++)
        if (ends[i + 1] - ends[i] != 2) goto done;
    for (v = 0; v < n; v++)
        if (!edge_in_range(v, n, aptr, navals, avals, m + 1)) goto done;
    s.uv = ids + (m ? ends[0] : 0);
    status = NOMEM;
    for (v = 0; v < n; v++) {
        int deg = s.undec[v] = s.vptr[v + 1] - s.vptr[v];
        row = s.nxt + s.vptr[v] + 2 * v;
        for (d = 0; d <= deg + 1; d++) row[d] = deg + 1;
        for (i = aptr[v]; i < aptr[v + 1]; i++)
            if (avals[i] <= deg) row[avals[i]] = avals[i];
        for (d = deg; d >= 0; d--)
            if (row[d] > row[d + 1]) row[d] = row[d + 1];
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

/* See cfhyper._kernels_py.edge_degree. vptr (n + 1) and vedges (nvedges)
 * are the incidence of the edges, stamp holds m zeros. Each edge stamps
 * the edges in its vertices' rows, counting the first stamp of each.
 * Returns the largest count less one (0 when m is 0), or BADINPUT for an
 * edge, id, row bound or row entry out of range. */
int cfh_edge_degree(int n, int m, const int *ends, int nids, const int *ids,
                    const int *vptr, int nvedges, const int *vedges, int *stamp) {
    int e, j, k, v, count, best = 0;
    for (e = 0; e < m; e++)
        if (!edge_in_range(e, m, ends, nids, ids, n)) return BADINPUT;
    if (vptr[0] < 0 || vptr[n] > nvedges) return BADINPUT;
    for (v = 0; v < n; v++)
        if (vptr[v] > vptr[v + 1]) return BADINPUT;
    for (j = vptr[0]; j < vptr[n]; j++)
        if (vedges[j] < 0 || vedges[j] >= m) return BADINPUT;
    for (e = 0; e < m; e++) {
        for (j = ends[e], count = 0; j < ends[e + 1]; j++)
            for (v = ids[j], k = vptr[v]; k < vptr[v + 1]; k++)
                if (stamp[vedges[k]] != e + 1) {
                    stamp[vedges[k]] = e + 1;
                    count++;
                }
        if (count - 1 > best) best = count - 1;
    }
    return best;
}

/* the root of v in a union-find forest, halving the path to it */
static int find_root(int *parent, int v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
}

/* See cfhyper._kernels_py.components: a union-find whose roots are the
 * smallest vertex of their tree, so parent[v] <= v and one ascending pass
 * turns label, the forest, into component labels numbered by smallest
 * vertex. label has room for n. Returns the number of components, or
 * BADINPUT for an edge or id out of range. */
int cfh_components(int n, int m, const int *ends, int nids, const int *ids, int *label) {
    int e, j, v, a, b, count = 0;
    for (e = 0; e < m; e++)
        if (!edge_in_range(e, m, ends, nids, ids, n)) return BADINPUT;
    for (v = 0; v < n; v++) label[v] = v;
    for (e = 0; e < m; e++) {
        for (j = ends[e], a = -1; j < ends[e + 1]; j++) {
            b = find_root(label, ids[j]);
            if (a < 0 || b < a) {
                if (a >= 0) label[a] = b;
                a = b;
            } else {
                label[b] = a;
            }
        }
    }
    for (v = 0; v < n; v++) label[v] = label[v] == v ? count++ : label[label[v]];
    return count;
}

/* See cfhyper._kernels_py.color_search, with 0 <= k <= n. Returns 1 with
 * the coloring in colors (n), 0 when none exists, NOMEM, or BADINPUT for
 * an edge or id out of range. */
int cfh_color(int n, int m, const int *ends, int nids, const int *ids, int k, int mode,
              int *colors, long long *nodes) {
    int found, i, j, v, c, e, limit, ok, first, last;
    int *vptr, *vinc, *uncolored, *attempt, *maxused, *cnt;

    *nodes = 0;
    /* one allocation per array, as the compiler may then assume they do
     * not alias: this search ran about 10% faster than with the arrays
     * carved out of one block */
    vptr = calloc(n + 1, sizeof(int));
    attempt = calloc(n + 1, sizeof(int));
    maxused = calloc(n + 1, sizeof(int));
    cnt = calloc(k + 2, sizeof(int));
    uncolored = calloc(m + 1, sizeof(int));
    vinc = calloc((size_t)nids + 1, sizeof(int));
    found = NOMEM;
    if (!vptr || !attempt || !maxused || !cnt || !uncolored || !vinc) goto done;
    found = cfh_incidence(n, m, ends, nids, ids, vptr, vinc);
    if (found == 0 && n == 0) found = 1; /* the empty coloring */
    if (found != 0) goto done;
    for (i = 0; i < m; i++) uncolored[i] = ends[i + 1] - ends[i];

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
                     || edge_ok(ids + ends[e], ids + ends[e + 1], colors, cnt, mode);
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
    free(attempt);
    free(maxused);
    free(cnt);
    free(uncolored);
    free(vinc);
    return found;
}

/* See cfhyper._kernels_py.scan_edges; cnt holds nc zeros. The edges among
 * which[0 .. nwhich), all when nwhich < 0, that fail go to out. Returns how
 * many did, BADINPUT for an edge or id out of range, or BADCOLOR for a
 * color outside [0, nc), which cnt has no room for. */
int cfh_scan(int m, const int *ends, int nids, const int *ids, int nc, const int *colors,
             int mode, int t, int nwhich, const int *which, int *cnt, int *out) {
    int i, e, distinct, failed = 0;
    const int *first, *last, *p;
    for (i = 0; i < (nwhich < 0 ? m : nwhich); i++) {
        e = nwhich < 0 ? i : which[i];
        if (!edge_in_range(e, m, ends, nids, ids, nc)) return BADINPUT;
        first = ids + ends[e];
        last = ids + ends[e + 1];
        for (p = first; p < last; p++)
            if (colors[*p] < 0 || colors[*p] >= nc) return BADCOLOR;
        if (mode == MODE_CONFLICT_FREE) {
            if (!edge_ok(first, last, colors, cnt, mode)) out[failed++] = e;
            continue;
        }
        for (p = first, distinct = 0; p < last && distinct <= t; p++)
            distinct += cnt[colors[*p]]++ == 0;
        for (p = first; p < last; p++) cnt[colors[*p]] = 0;
        if (distinct <= t) out[failed++] = e;
    }
    return failed;
}

static int cmp_int(const void *a, const void *b) {
    int x = *(const int *)a, y = *(const int *)b;
    return (x > y) - (x < y);
}

/* The edge lines of a hypergraph file, read in place: the body is
 * data[start .. len), the bytes after its header. Accepted are exactly m
 * lines of ids in 1..n, in ASCII decimal of at most 10 digits, separated
 * by spaces or tabs and ended by \n (the last one also by the end of
 * body), then only spaces, tabs and \n. Line i's ids go sorted to
 * ids[ends[i] .. ends[i + 1]); ids has room for cap of them, ends for
 * min(m, cap) + 1. Returns ends[m], or -1 to decline anything else: an
 * empty line, a repeated id, more than cap ids, any other byte. Declining
 * is no verdict; graph_io's parser then reads the file and owns every
 * error message. */
int cfh_parse(const unsigned char *data, long long start, long long len, int n, int m,
              int cap, int *ends, int *ids) {
    const unsigned char *p = data + start, *end = data + len;
    int line, k = 0, first, i, j, v, digits;
    long long value;

    ends[0] = 0;
    for (line = 0; line < m; line++) {
        for (first = k;;) {
            while (p < end && (*p == ' ' || *p == '\t')) p++;
            if (p == end || *p == '\n') break;
            if (k == cap) return -1;
            for (value = 0, digits = 0; p < end && *p >= '0' && *p <= '9'; p++) {
                if (++digits > 10) return -1;
                value = 10 * value + (*p - '0');
            }
            if (value < 1 || value > n) return -1;
            ids[k++] = (int)value;
        }
        if (k == first) return -1;
        /* insertion sort beats qsort's comparator calls below about 300
         * random ids (24k 8-id edges: 5.7 against 9.8 ms, Xeon, gcc -O2,
         * glibc 2.36) but is quadratic, so long edges go to qsort */
        if (k - first > 256) {
            qsort(ids + first, k - first, sizeof(int), cmp_int);
        } else {
            for (i = first + 1; i < k; i++) {
                for (v = ids[i], j = i; j > first && ids[j - 1] > v; j--) ids[j] = ids[j - 1];
                ids[j] = v;
            }
        }
        for (i = first + 1; i < k; i++)
            if (ids[i] == ids[i - 1]) return -1;
        ends[line + 1] = k;
        if (p < end) p++;
    }
    for (; p < end; p++)
        if (*p != ' ' && *p != '\t' && *p != '\n') return -1;
    return k;
}
