/* Compiled search kernel, loaded with ctypes by cfcolor.kernels.

   A line-for-line port of _kernel_py.py: both explore the identical search
   tree and return the same status, result and node count.  The search is
   iterative (an explicit per-depth state instead of recursion), so the
   depth is bounded by the vertex count, not by the C stack.

   Vertices are decided part by part: the connected parts of the edges in
   order of their smallest vertex, then the vertices in no edge, each part
   by decreasing degree, ties by id.  Parts share no edge, so a search that
   backtracks out of a part's first vertex is exhausted.  A partial search
   (require_total unset) with uncolored_first tries "uncolored" at each
   vertex before its list colors: a sparse coloring is usually the easy
   one to find.  Without uncolored_first it tries "uncolored" after the
   colors.  A search over one part that finds nothing visits the same
   nodes in either order.

   Inputs are flat CSR int arrays built by kernels.py; every vertex index
   must lie in [0, n) and every color in [0, num_colors).  Status codes:
   0 = solution found, 1 = exhausted (no solution), 2 = node budget
   exceeded, 3 = out of memory. */

#include <stdlib.h>

enum { FOUND = 0, EXHAUSTED = 1, OVER_BUDGET = 2, NO_MEMORY = 3 };
enum { UNDECIDED = -2, UNCOLORED = -1 };

typedef struct {
    int n, m, num_colors, require_total, symmetric;
    int head, tail;  /* 1 when UNCOLORED takes the position before / after a list */
    const int *edge_start, *edge_vert;  /* edge e: edge_vert[edge_start[e]..edge_start[e+1]) */
    const int *list_lo, *list_hi, *list_color;  /* list of v: list_color[list_lo[v]..list_hi[v]) */
    int *inc_start, *inc_edge;  /* edges of v, in edge-index order */
    int *cnt;  /* m rows of num_colors: how often each color occurs in the edge */
    int *uniq;  /* colors occurring exactly once in the edge */
    int *und;  /* undecided vertices of the edge */
    int *state;  /* color, UNCOLORED or UNDECIDED per vertex */
    int unsat;  /* edges without a unique color */
} CF;

static int *row_of(const CF *s, int ei) {
    return s->cnt + (size_t)ei * (size_t)s->num_colors;
}

/* An edge with no unique color can still be fixed iff some undecided
   vertex can contribute a color unseen in the edge. */
static int edge_alive(const CF *s, int ei) {
    if (s->uniq[ei] != 0) return 1;
    if (s->und[ei] == 0) return 0;
    const int *row = row_of(s, ei);
    for (int i = s->edge_start[ei]; i < s->edge_start[ei + 1]; i++) {
        int v = s->edge_vert[i];
        if (s->state[v] != UNDECIDED) continue;
        for (int j = s->list_lo[v]; j < s->list_hi[v]; j++)
            if (row[s->list_color[j]] == 0) return 1;
    }
    return 0;
}

/* Returns 0 when some incident edge becomes dead; the assignment is made
   either way and undone by unassign. */
static int assign(CF *s, int v, int value) {
    s->state[v] = value;
    for (int i = s->inc_start[v]; i < s->inc_start[v + 1]; i++) {
        int ei = s->inc_edge[i];
        s->und[ei]--;
        if (value < 0) continue;
        int *row = row_of(s, ei);
        if (++row[value] == 1) {
            if (++s->uniq[ei] == 1) s->unsat--;
        } else if (row[value] == 2) {
            if (--s->uniq[ei] == 0) s->unsat++;
        }
    }
    for (int i = s->inc_start[v]; i < s->inc_start[v + 1]; i++)
        if (!edge_alive(s, s->inc_edge[i])) return 0;
    return 1;
}

static void unassign(CF *s, int v, int value) {
    s->state[v] = UNDECIDED;
    for (int i = s->inc_start[v]; i < s->inc_start[v + 1]; i++) {
        int ei = s->inc_edge[i];
        s->und[ei]++;
        if (value < 0) continue;
        int *row = row_of(s, ei);
        if (row[value] == 1) {
            if (--s->uniq[ei] == 0) s->unsat++;
        } else if (row[value] == 2) {
            if (++s->uniq[ei] == 1) s->unsat--;
        }
        row[value]--;
    }
}

/* Depth d decides vertex order[d]: its colors in list order (in symmetric
   mode only up to max_used + 1) and, unless require_total, UNCOLORED.
   next[d] walks v's list positions up to end[d], and UNCOLORED takes one
   extra position: the one before the list (head) or the one after the
   colors (tail).  first[d] marks the first vertex of a part. */
static int cf_search(CF *s, const int *order, const int *first, int *next, int *end,
                     int *value, int *max_used, long long budget, long long *nodes) {
    int d = 0;
    max_used[0] = -1;
    for (;;) {
        /* entering depth d */
        if (!s->require_total && s->unsat == 0) return FOUND;
        if (d == s->n) {
            if (s->unsat == 0) return FOUND;
        } else {
            int v = order[d], limit = s->list_hi[v];
            if (s->symmetric && limit - s->list_lo[v] > max_used[d] + 2)
                limit = s->list_lo[v] + max_used[d] + 2;
            next[d] = s->list_lo[v] - s->head;
            end[d] = limit + s->tail;
        }
        /* find the next child to descend into, backtracking as needed */
        for (;;) {
            if (d < s->n && next[d] < end[d]) {
                int v = order[d], i = next[d]++;
                int c = i >= s->list_lo[v] && i < end[d] - s->tail ? s->list_color[i] : UNCOLORED;
                if (++*nodes > budget) return OVER_BUDGET;
                value[d] = c;
                if (assign(s, v, c)) break;
                unassign(s, v, c);
                continue;
            }
            if (first[d]) return EXHAUSTED;
            d--;
            unassign(s, order[d], value[d]);
        }
        max_used[d + 1] = s->symmetric && value[d] > max_used[d] ? value[d] : max_used[d];
        d++;
    }
}

/* v's part: the root of a union-find whose roots are the smallest
   vertices of their parts. */
static int find(int *part, int v) {
    for (; part[v] != v; v = part[v]) part[v] = part[part[v]];
    return v;
}

/* The order of _kernel_py, sorted(key=(part, -degree, v)), by two counting
   sorts, the vertices in no edge last as part n.  first[d] marks the
   first vertex of a part, and holds the degree order until the part sort
   has read it.  Returns 0 when out of memory. */
static int search_order(const CF *s, int *order, int *first) {
    int n = s->n, max_deg = 0;
    const int *inc = s->inc_start;
    for (int v = 0; v < n; v++)
        if (inc[v + 1] - inc[v] > max_deg) max_deg = inc[v + 1] - inc[v];
    int *part = calloc((size_t)n + 1, sizeof(int));
    int *slot = calloc((size_t)(max_deg > n ? max_deg : n) + 2, sizeof(int));
    int ok = part && slot;
    if (ok) {
        for (int v = 0; v < n; v++) slot[max_deg - (inc[v + 1] - inc[v]) + 1]++;
        for (int k = 1; k <= max_deg + 1; k++) slot[k] += slot[k - 1];
        for (int v = 0; v < n; v++) first[slot[max_deg - (inc[v + 1] - inc[v])]++] = v;
        for (int v = 0; v < n; v++) part[v] = v;
        for (int ei = 0; ei < s->m; ei++)
            for (int i = s->edge_start[ei]; i < s->edge_start[ei + 1]; i++) {
                int a = find(part, s->edge_vert[s->edge_start[ei]]), b = find(part, s->edge_vert[i]);
                part[a > b ? a : b] = a < b ? a : b;
            }
        for (int k = 0; k <= n + 1; k++) slot[k] = 0;
        /* a find from v meets only smaller vertices, which hold their roots by now */
        for (int v = 0; v < n; v++) {
            part[v] = inc[v + 1] > inc[v] ? find(part, v) : n;
            slot[part[v] + 1]++;
        }
        for (int k = 1; k <= n; k++) slot[k] += slot[k - 1];
        for (int d = 0; d < n; d++) order[slot[part[first[d]]]++] = first[d];
        first[0] = 1;
        for (int d = 1; d < n; d++) first[d] = part[order[d]] != part[order[d - 1]];
    }
    free(part);
    free(slot);
    return ok;
}

/* CSR incidence of the sets: for each vertex, the sets containing it in
   set-index order.  Returns 0 when out of memory. */
static int incidence(int n, int m, const int *set_start, const int *set_vert,
                     int **start_out, int **item_out) {
    int *start = calloc((size_t)n + 1, sizeof(int));
    int *item = calloc((size_t)set_start[m] + 1, sizeof(int));
    int *fill = calloc((size_t)n + 1, sizeof(int));
    if (!start || !item || !fill) {
        free(start);
        free(item);
        free(fill);
        return 0;
    }
    for (int i = 0; i < set_start[m]; i++) start[set_vert[i] + 1]++;
    for (int v = 0; v < n; v++) start[v + 1] += start[v];
    for (int si = 0; si < m; si++)
        for (int i = set_start[si]; i < set_start[si + 1]; i++) {
            int v = set_vert[i];
            item[start[v] + fill[v]++] = si;
        }
    free(fill);
    *start_out = start;
    *item_out = item;
    return 1;
}

/* Conflict-free (partial) list coloring search; see _kernel_py.solve_cf.
   On FOUND, out[v] is v's dense color or -1 for uncolored. */
int solve_cf(int n, int m, const int *edge_start, const int *edge_vert,
             const int *list_lo, const int *list_hi, const int *list_color,
             int num_colors, int require_total, int symmetric, int uncolored_first,
             long long budget, int *out, long long *nodes) {
    CF s = {.n = n, .m = m, .num_colors = num_colors, .require_total = require_total,
            .symmetric = symmetric, .head = !require_total && uncolored_first,
            .tail = !require_total && !uncolored_first, .edge_start = edge_start, .edge_vert = edge_vert,
            .list_lo = list_lo, .list_hi = list_hi, .list_color = list_color};
    *nodes = 0;
    int status = NO_MEMORY;
    size_t depths = (size_t)n + 1;
    int *order = calloc(depths, sizeof(int));
    int *first = calloc(depths, sizeof(int));
    int *next = calloc(depths, sizeof(int));
    int *end = calloc(depths, sizeof(int));
    int *value = calloc(depths, sizeof(int));
    int *max_used = calloc(depths, sizeof(int));
    s.cnt = calloc((size_t)m * (size_t)num_colors + 1, sizeof(int));
    s.uniq = calloc((size_t)m + 1, sizeof(int));
    s.und = calloc((size_t)m + 1, sizeof(int));
    s.state = calloc(depths, sizeof(int));
    if (order && first && next && end && value && max_used && s.cnt && s.uniq && s.und && s.state
        && incidence(n, m, edge_start, edge_vert, &s.inc_start, &s.inc_edge)) {
        if (search_order(&s, order, first)) {
            for (int ei = 0; ei < m; ei++) s.und[ei] = edge_start[ei + 1] - edge_start[ei];
            for (int v = 0; v < n; v++) s.state[v] = UNDECIDED;
            s.unsat = m;
            status = cf_search(&s, order, first, next, end, value, max_used, budget, nodes);
            if (status == FOUND)
                for (int v = 0; v < n; v++) out[v] = s.state[v] >= 0 ? s.state[v] : -1;
        }
        free(s.inc_start);
        free(s.inc_edge);
    }
    free(order);
    free(first);
    free(next);
    free(end);
    free(value);
    free(max_used);
    free(s.cnt);
    free(s.uniq);
    free(s.und);
    free(s.state);
    return status;
}
