/* Compiled kernels, loaded with ctypes by cfcolor.kernels: the
   conflict-free search solve_cf, the induced-star search max_star, the
   edge-meeting count hypergraph_gamma, the resampling colorer
   near_uniform, the pipeline's seed-independent stages pipeline_core and
   the file readers read_graph and read_hypergraph.  Each returns a
   status that only kernels.py reads; it turns them into results,
   MemoryError, ResampleFailure and ValueError.

   solve_cf is a line-for-line port of _kernel_py.search: both explore the
   identical search tree and return the same status, result and node
   count.  The search is iterative (an explicit per-depth state instead of
   recursion), so the depth is bounded by the vertex count, not by the C
   stack.

   Vertices are decided part by part: the connected parts of the edges in
   order of their smallest vertex, then the vertices in no edge, each part
   by decreasing degree, ties by id: a qsort on the pure kernel's sort key
   (part, -degree, v).  Parts share no edge, so a search that backtracks
   out of a part's first vertex is exhausted.  A partial search
   (require_total unset) with uncolored_first tries "uncolored" at each
   vertex before its list colors: a sparse coloring is usually the easy
   one to find.  Without uncolored_first it tries "uncolored" after the
   colors.  A search over one part that finds nothing visits the same
   nodes in either order.

   Inputs are flat CSR int arrays built by kernels.solve_cf, the entry to
   the search for both backends, which checks that every vertex index lies
   in [0, n) and every color in [0, num_colors), and sets symmetric exactly
   when every list equals the first, passing that list once; the pure
   kernel's search takes the same arguments.  Every array a
   call needs comes from one zeroed allocation, freed before it returns.
   Status codes: 0 = solution found, 1 = exhausted (no solution), 2 = node
   budget exceeded, 3 = out of memory, the one failure of that
   allocation.

   max_star takes a graph's adjacency as CSR int arrays, Graph.csr, whose
   starts kernels.py has checked to rise from 0 to the number of
   neighbors, and runs the branch and bound of _kernel_py.max_star on
   word bitsets, one zeroed allocation per call again.  Status codes: 0 =
   done, 3 = out of memory, 4 = the row *out names a vertex outside
   [0, n) or its own vertex.

   hypergraph_gamma counts the edges that each edge of a hypergraph meets
   over its CSR edges.  It checks that every row names vertices in
   [0, n) only, and allocates one zeroed block per call.

   read_graph reads the edge lines of the text that fileio.format_graph
   writes into those CSR arrays, every row sorted, filling a zeroed block
   that kernels.py allocates from the header it has checked; it declines
   every other text, which fileio then reads record by record.
   read_hypergraph does the same for the canonical `p hgraph` text.
   Status codes: 0 = read, 1 = declined.

   near_uniform is the loop of _kernel_py.near_uniform: the same draws,
   from Python's Mersenne Twister continued from its state, the same
   resampled edges and the same rounds.  Status codes: 0 = done, 2 =
   round cap, 3 = out of memory, 4 = an edge names a vertex outside
   [0, n), 5 = the final check failed.

   pipeline_core finds what _kernel_py.pipeline_core finds, reading the
   lists as near_uniform reads them, and fills blocks that kernels.py
   allocates.  Status codes: 0 = done, whether a check failed or not, 1 =
   declined (an H1 greedy dead end), 3 = out of memory, 4 = a row names
   a vertex outside [0, n). */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum {
    FOUND = 0, EXHAUSTED = 1, OVER_BUDGET = 2, NO_MEMORY = 3, BAD_ADJACENCY = 4, CHECK_FAILED = 5
};
enum { DECLINED = 1 };  /* the readers: not a text they read */
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

/* qsort order of the (part, -degree, v) keys */
static int by_key(const void *a, const void *b) {
    const int *x = a, *y = b;
    for (int i = 0; i < 3; i++)
        if (x[i] != y[i]) return x[i] < y[i] ? -1 : 1;
    return 0;
}

/* The order of _kernel_py, sorted(key=(part, -degree, v)), the vertices
   in no edge last as part n.  first[d] marks the first vertex of a part;
   part holds n ints and key 3n. */
static void search_order(const CF *s, int *part, int *key, int *order, int *first) {
    int n = s->n;
    for (int v = 0; v < n; v++) part[v] = v;
    for (int ei = 0; ei < s->m; ei++)
        for (int i = s->edge_start[ei]; i < s->edge_start[ei + 1]; i++) {
            int a = find(part, s->edge_vert[s->edge_start[ei]]), b = find(part, s->edge_vert[i]);
            part[a > b ? a : b] = a < b ? a : b;
        }
    for (int v = 0; v < n; v++) {
        int degree = s->inc_start[v + 1] - s->inc_start[v];
        key[3 * v] = degree ? find(part, v) : n;
        key[3 * v + 1] = -degree;
        key[3 * v + 2] = v;
    }
    qsort(key, (size_t)n, 3 * sizeof(int), by_key);
    first[0] = 1;  /* also when n = 0: backtracking out of depth 0 ends the search */
    for (int d = 0; d < n; d++) {
        order[d] = key[3 * d + 2];
        if (d > 0) first[d] = key[3 * d] != key[3 * d - 3];
    }
}

/* CSR incidence of the edges: for each vertex, the edges containing it
   in edge-index order.  inc_start (n + 1 ints) starts zeroed; it counts
   each vertex's edges, sums them to the end of its run, and the fill from
   the last edge back leaves it at the start of its run. */
static void incidence(int n, int m, const int *edge_start, const int *edge_vert,
                      int *inc_start, int *inc_edge) {
    for (int i = 0; i < edge_start[m]; i++) inc_start[edge_vert[i]]++;
    for (int v = 1; v <= n; v++) inc_start[v] += inc_start[v - 1];
    for (int ei = m - 1; ei >= 0; ei--)
        for (int i = edge_start[ei]; i < edge_start[ei + 1]; i++)
            inc_edge[--inc_start[edge_vert[i]]] = ei;
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
    /* one zeroed block: 12 runs of n + 1 ints (the per-depth arrays, the
       union-find, the 3 key ints per vertex, the states, the incidence
       starts), one int per incidence, and per edge its counts row, its
       unique and its undecided count */
    size_t depths = (size_t)n + 1, items = (size_t)edge_start[m];
    int *order = calloc(12 * depths + items + (size_t)m * ((size_t)num_colors + 2), sizeof(int));
    if (!order) return NO_MEMORY;
    int *first = order + depths, *next = first + depths, *end = next + depths;
    int *value = end + depths, *max_used = value + depths, *part = max_used + depths;
    int *key = part + depths;
    s.state = key + 3 * depths;
    s.inc_start = s.state + depths;
    s.inc_edge = s.inc_start + depths;
    s.uniq = s.inc_edge + items;
    s.und = s.uniq + m;
    s.cnt = s.und + m;
    incidence(n, m, edge_start, edge_vert, s.inc_start, s.inc_edge);
    search_order(&s, part, key, order, first);
    for (int ei = 0; ei < m; ei++) s.und[ei] = edge_start[ei + 1] - edge_start[ei];
    for (int v = 0; v < n; v++) s.state[v] = UNDECIDED;
    s.unsat = m;
    int status = cf_search(&s, order, first, next, end, value, max_used, budget, nodes);
    if (status == FOUND)
        for (int v = 0; v < n; v++) out[v] = s.state[v] >= 0 ? s.state[v] : -1;
    free(order);
    return status;
}

/* Index of the lowest set bit of a nonzero word, and the number of set
   bits of a word. */
static int lowest(uint64_t x) {
#if defined(__GNUC__)
    return __builtin_ctzll(x);
#else
    int i = 0;
    for (; !(x & 1); x >>= 1) i++;
    return i;
#endif
}

static int popcount(uint64_t x) {
#if defined(__GNUC__)
    return __builtin_popcountll(x);
#else
    int c = 0;
    for (; x; x &= x - 1) c++;
    return c;
#endif
}

/* Number of cliques in a greedy cover of the bitset p, as in
   _kernel_py.clique_cover: take the lowest vertex left, then keep adding
   the lowest vertex adjacent to every vertex taken.  Bitsets have w
   words, and p has none outside words [lo, hi), the only ones read or
   written; rest and cand are scratch. */
static int clique_cover(size_t w, size_t lo, size_t hi, const uint64_t *masks,
                        const uint64_t *p, uint64_t *rest, uint64_t *cand) {
    int count = 0;
    memcpy(rest + lo, p + lo, (hi - lo) * sizeof *rest);
    for (size_t i = lo; i < hi; i++)
        while (rest[i]) {
            const uint64_t *row = masks + (i * 64 + (size_t)lowest(rest[i])) * w;
            rest[i] &= rest[i] - 1;
            /* no vertex of rest lies below word i */
            for (size_t j = i; j < hi; j++) cand[j] = rest[j] & row[j];
            for (size_t j = i; j < hi; j++)
                while (cand[j]) {
                    int b = lowest(cand[j]);
                    row = masks + (j * 64 + (size_t)b) * w;
                    rest[j] ^= (uint64_t)1 << b;
                    for (size_t x = j; x < hi; x++) cand[x] &= row[x];
                }
            count++;
        }
    return count;
}

/* Largest t such that the graph has an induced K_{1,t}; see
   _kernel_py.max_star, whose masks, pruning and stack this keeps.
   Vertex v's neighbors are adj_vert[adj_start[v]..adj_start[v+1]), and
   the starts rise from 0.
   One zeroed block holds n bitsets of w = ceil(n / 64) words (the
   neighborhoods), a stack of max degree + 1 bitsets with their counts,
   and two bitsets of scratch.  A stack entry (size, p) keeps p in
   place when it becomes "exclude the lowest vertex of p", and the
   entry above it gets "include it".  Every bitset of a root's search
   lies inside the root's neighborhood, so only the words [lo, hi) that
   the neighborhood spans are touched. */
int max_star(int n, const int *adj_start, const int *adj_vert, int *out) {
    *out = 0;
    if (n <= 0) return FOUND;
    size_t w = ((size_t)n + 63) / 64, depth = 1;
    for (int v = 0; v < n; v++)
        if ((size_t)(adj_start[v + 1] - adj_start[v]) >= depth)
            depth = (size_t)(adj_start[v + 1] - adj_start[v]) + 1;
    size_t rows = (size_t)n + depth + 2;
    if (rows > SIZE_MAX / sizeof(uint64_t) / (w + 1)) return NO_MEMORY;
    uint64_t *masks = calloc(rows * w + depth, sizeof *masks);
    if (!masks) return NO_MEMORY;
    uint64_t *stack = masks + (size_t)n * w, *rest = stack + depth * w, *cand = rest + w;
    uint64_t *sizes = cand + w;
    for (int v = 0; v < n; v++)
        for (int i = adj_start[v]; i < adj_start[v + 1]; i++) {
            int u = adj_vert[i];
            if (u < 0 || u >= n || u == v) {
                free(masks);
                *out = v;
                return BAD_ADJACENCY;
            }
            masks[(size_t)v * w + (size_t)u / 64] |= (uint64_t)1 << (u % 64);
        }
    int best = 0;
    for (int root = 0; root < n; root++) {
        const uint64_t *nbrs = masks + (size_t)root * w;
        size_t lo = 0, hi = w;
        while (lo < w && !nbrs[lo]) lo++;
        if (lo == w) continue;  /* an empty neighborhood holds no star */
        while (!nbrs[hi - 1]) hi--;
        memcpy(stack + lo, nbrs + lo, (hi - lo) * sizeof *stack);
        sizes[0] = 0;
        for (size_t top = 1; top > 0;) {
            uint64_t *p = stack + --top * w;
            int size = (int)sizes[top], cover = clique_cover(w, lo, hi, masks, p, rest, cand);
            if (size + cover <= best) continue;
            int bits = 0;
            for (size_t j = lo; j < hi; j++) bits += popcount(p[j]);
            if (cover == bits) {
                best = size + cover;
                continue;
            }
            size_t i = lo;
            while (!p[i]) i++;
            const uint64_t *row = masks + (i * 64 + (size_t)lowest(p[i])) * w;
            p[i] &= p[i] - 1;
            for (size_t j = lo; j < hi; j++) p[w + j] = p[j] & ~row[j];
            sizes[top + 1] = (uint64_t)size + 1;
            top += 2;
        }
    }
    free(masks);
    *out = best;
    return FOUND;
}

/* 0, or BAD_ADJACENCY with *out the first of the m CSR rows that names a
   vertex outside [0, n). */
static int rows_in_range(int n, int m, const int *start, const int *vert, int *out) {
    for (int r = 0; r < m; r++)
        for (int i = start[r]; i < start[r + 1]; i++)
            if (vert[i] < 0 || vert[i] >= n) {
                *out = r;
                return BAD_ADJACENCY;
            }
    return FOUND;
}

/* First-fit coloring of the distinct vertices order[0..len) of the graph
   with CSR adjacency as in max_star, rows checked; see
   _kernel_py.greedy_color.  color holds -1 on entry and keeps it for a
   vertex not in order.  Each vertex takes the smallest color that no
   already-colored neighbor has: the colors of its neighbors are stamped
   with its position + 1 in a zeroed block of n + 2 ints, a neighbor
   colored c at stamp[c + 1] and an uncolored one at stamp[0], which no
   color reads, and the first unstamped color is its own. */
static void first_fit(const int *adj_start, const int *adj_vert, int len, const int *order,
                      int *color, int *stamp) {
    for (int p = 0; p < len; p++) {
        int v = order[p], c = 0;
        /* a colored vertex's color is below the number colored before it */
        for (int i = adj_start[v]; i < adj_start[v + 1]; i++) stamp[color[adj_vert[i]] + 1] = p + 1;
        while (stamp[c + 1] == p + 1) c++;
        color[v] = c;
    }
}

/* Gamma of the hypergraph on n vertices with m CSR edges as in solve_cf,
   the largest number of other edges that one edge meets (0 without
   edges); see _kernel_py.gamma.  Edge e marks every edge it reaches
   through the incidence of its vertices with e + 1, itself first, and
   counts the edges it marks.  One zeroed block holds the incidence and
   the marks; kernels.py passes n >= 0.  Status codes: 0 = done, with Gamma in *out, 3 = out of
   memory, 4 = the edge *out names a vertex outside [0, n). */
int hypergraph_gamma(int n, int m, const int *edge_start, const int *edge_vert, int *out) {
    if (rows_in_range(n, m, edge_start, edge_vert, out)) return BAD_ADJACENCY;
    size_t items = (size_t)edge_start[m];
    int *inc_start = calloc((size_t)n + 1 + items + (size_t)m, sizeof *inc_start);
    if (!inc_start) return NO_MEMORY;
    int *inc_edge = inc_start + (size_t)n + 1, *mark = inc_edge + items, best = 0;
    incidence(n, m, edge_start, edge_vert, inc_start, inc_edge);
    for (int e = 0; e < m; e++) {
        int met = 0;
        mark[e] = e + 1;
        for (int i = edge_start[e]; i < edge_start[e + 1]; i++) {
            int v = edge_vert[i];
            for (int j = inc_start[v]; j < inc_start[v + 1]; j++)
                if (mark[inc_edge[j]] != e + 1) {
                    mark[inc_edge[j]] = e + 1;
                    met++;
                }
        }
        if (met > best) best = met;
    }
    free(inc_start);
    *out = best;
    return FOUND;
}

/* 1 when text[*pos] is the byte c, which *pos then moves past. */
static int expect(const char *text, size_t len, size_t *pos, char c) {
    if (*pos >= len || text[*pos] != c) return 0;
    ++*pos;
    return 1;
}

/* The canonical decimal (no sign, no leading zero) at text[*pos], which
   must be at most limit; -1 otherwise.  On success *pos moves past its
   digits. */
static long long decimal(const char *text, size_t len, size_t *pos, long long limit) {
    size_t i = *pos;
    if (i >= len || text[i] < '1' || text[i] > '9') return -1;
    long long value = 0;
    for (; i < len && text[i] >= '0' && text[i] <= '9'; i++) {
        value = value * 10 + (text[i] - '0');
        if (value > limit) return -1;
    }
    *pos = i;
    return value;
}

/* The line `e U V\n` at text[*pos] with 1 <= U, V <= n, as 0-based
   *u and *v; 0 when the text there is anything else. */
static int edge_line(const char *text, size_t len, size_t *pos, long long n, int *u, int *v) {
    long long a, b;
    if (!expect(text, len, pos, 'e') || !expect(text, len, pos, ' ')
        || (a = decimal(text, len, pos, n)) < 0 || !expect(text, len, pos, ' ')
        || (b = decimal(text, len, pos, n)) < 0 || !expect(text, len, pos, '\n'))
        return 0;
    *u = (int)(a - 1);
    *v = (int)(b - 1);
    return 1;
}

static int by_int(const void *a, const void *b) {
    int x = *(const int *)a, y = *(const int *)b;
    return (x > y) - (x < y);
}

/* Sorts row[0..d) in place unless it ascends already; 0 when it names a
   vertex twice. */
static int sorted_row(int *row, int d) {
    int i = 1;
    while (i < d && row[i - 1] < row[i]) i++;
    if (i >= d) return 1;
    qsort(row, (size_t)d, sizeof *row, by_int);
    for (i = 1; i < d; i++)
        if (row[i - 1] == row[i]) return 0;
    return 1;
}

/* The simple graph of a text of len bytes exactly as format_graph writes
   it, whose header `p graph N M\n` the caller has checked, with 1 <= N,
   1 <= M and N + 2 + 4M ints in the zeroed block: from text[pos], M lines
   `e U V\n`, canonical decimals, 1 <= U, V <= N, nothing after the last
   line.

   When it reads the text, block holds the CSR starts block[0..N], from
   block + N + 2 the 2M neighbors, every row sorted, and then the 2M ends
   of the lines in line order.  The one pass over the text keeps the ends
   and counts the degrees into start[u + 2], so that after the prefix
   sums start[u + 1] is the start of row u; the fill from the ends puts
   row u at start[u + 1]++, which leaves start[u + 1] at its end.  Rows
   come out sorted when the lines are, as format_graph writes them; any
   other row is sorted in place.  Status codes: 0 = read, 1 = declined (any
   other text, a self-loop or a duplicate edge, reversed or not). */
int read_graph(const char *text, size_t len, size_t pos, int n, int m, int *block) {
    int *start = block, *vert = start + (size_t)n + 2, *ends = vert + 2 * (size_t)m;
    for (int e = 0; e < m; e++) {
        int *uv = ends + 2 * (size_t)e;
        if (!edge_line(text, len, &pos, n, uv, uv + 1) || uv[0] == uv[1]) return DECLINED;
        start[(size_t)uv[0] + 2]++;
        start[(size_t)uv[1] + 2]++;
    }
    if (pos != len) return DECLINED;
    for (size_t i = 2; i <= (size_t)n + 1; i++) start[i] += start[i - 1];
    for (int e = 0; e < m; e++) {
        int u = ends[2 * (size_t)e], v = ends[2 * (size_t)e + 1];
        vert[start[(size_t)u + 1]++] = v;
        vert[start[(size_t)v + 1]++] = u;
    }
    for (int x = 0; x < n; x++)
        if (!sorted_row(vert + start[x], start[x + 1] - start[x])) return DECLINED;
    return FOUND;
}

/* The hypergraph of a text of len bytes in the canonical `p hgraph`
   form, whose header `p hgraph N M\n` the caller has checked, with
   1 <= N and 1 <= M: from text[pos], M lines `h V1 ... Vk\n`, k >= 1,
   single spaces, canonical decimals, 1 <= Vi <= N, no vertex twice in a
   line, nothing after the last line.  The zeroed block holds M + 1 + cap
   ints: the CSR starts of the edges, then their vertices, 0-based, each
   edge sorted.  Every vertex takes at least two bytes of the text, so
   the caller's cap of half its length is never reached by a text this
   reads.  Status codes: 0 = read, 1 = declined (any other text,
   including a vertex repeated in an edge). */
int read_hypergraph(const char *text, size_t len, size_t pos, int n, int m, size_t cap,
                    int *block) {
    int *start = block, *vert = block + (size_t)m + 1;
    size_t k = 0;
    for (int e = 0; e < m; e++) {
        if (!expect(text, len, &pos, 'h')) return DECLINED;
        do {
            long long v;
            if (k == cap || !expect(text, len, &pos, ' ') || (v = decimal(text, len, &pos, n)) < 0)
                return DECLINED;
            vert[k++] = (int)(v - 1);
        } while (!expect(text, len, &pos, '\n'));
        start[e + 1] = (int)k;
        if (!sorted_row(vert + start[e], start[e + 1] - start[e])) return DECLINED;
    }
    return pos == len ? FOUND : DECLINED;
}

/* The Mersenne Twister of Python's random module, continued from the
   state random.Random.getstate() reports: 624 words and an index. */
enum { MT_N = 624, MT_M = 397 };

typedef struct {
    uint32_t mt[MT_N];
    int index;
} Twister;

static uint32_t twister_next(Twister *r) {
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    if (r->index >= MT_N) {
        int k = 0;
        for (; k < MT_N - MT_M; k++) {
            y = (r->mt[k] & 0x80000000U) | (r->mt[k + 1] & 0x7fffffffU);
            r->mt[k] = r->mt[k + MT_M] ^ (y >> 1) ^ mag01[y & 1U];
        }
        for (; k < MT_N - 1; k++) {
            y = (r->mt[k] & 0x80000000U) | (r->mt[k + 1] & 0x7fffffffU);
            r->mt[k] = r->mt[k + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 1U];
        }
        y = (r->mt[MT_N - 1] & 0x80000000U) | (r->mt[0] & 0x7fffffffU);
        r->mt[MT_N - 1] = r->mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 1U];
        r->index = 0;
    }
    y = r->mt[r->index++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= y >> 18;
    return y;
}

static int bit_length(uint64_t x) {
#if defined(__GNUC__)
    return x ? 64 - __builtin_clzll(x) : 0;
#else
    int k = 0;
    for (; x; x >>= 1) k++;
    return k;
#endif
}

/* rng.randrange(size) for 1 <= size < 2^63, drawn as Python draws it:
   getrandbits(k), k the bit length of size, again until it is below
   size.  Above 32 bits the first word is the low one and the second is
   cut to its top k - 32 bits. */
static uint64_t randbelow(Twister *r, uint64_t size) {
    int k = bit_length(size);
    for (;;) {
        uint64_t x = twister_next(r);
        if (k <= 32)
            x >>= 32 - k;
        else
            x |= (uint64_t)(twister_next(r) >> (64 - k)) << 32;
        if (x < size) return x;
    }
}

/* The lists of near_uniform: vertex v draws from list which[v].  List d
   has size[d] colors: extra[off[d]..off[d + 1]) when lo[d] < 0, else the
   colors from lo[d] up without the ascending removed colors
   extra[off[d]..off[d + 1]). */
typedef struct {
    const int *which;
    const long long *lo, *size, *off, *extra;
} Lists;

/* Color i of list d, 0 <= i < size[d].  In a range without removed
   colors x_0 < x_1 < ..., index i is lo + i + j, j the number of x_t
   with x_t - t <= lo + i, which do not fall as t grows. */
static long long list_color(const Lists *l, int d, long long i) {
    const long long *x = l->extra + l->off[d];
    if (l->lo[d] < 0) return x[i];
    long long c = l->lo[d] + i, a = 0, b = l->off[d + 1] - l->off[d];
    while (a < b) {
        long long mid = a + (b - a) / 2;
        if (x[mid] - mid <= c)
            a = mid + 1;
        else
            b = mid;
    }
    return c + a;
}

/* A color of v's list drawn as lists.sample draws it: index
   rng.randrange(size). */
static long long draw(const Lists *l, Twister *r, int v) {
    int d = l->which[v];
    return list_color(l, d, (long long)randbelow(r, (uint64_t)l->size[d]));
}

/* Each edge counts its colors in a table of its own: a power of two of
   at least twice its size slots, key[] the colors and count[] how often
   they occur, 0 for a free slot.  Probing is linear, and a deletion
   moves later entries back into the hole, so no probe meets a stale
   slot and an update costs O(1) expected. */
static size_t slot_of(uint64_t c, size_t mask) {
    uint64_t h = c * 0x9E3779B97F4A7C15ULL;
    return (size_t)(h ^ h >> 32) & mask;
}

/* One more c: returns its count before. */
static int count_up(uint64_t *key, int *count, size_t mask, uint64_t c) {
    size_t i = slot_of(c, mask);
    while (count[i] && key[i] != c) i = (i + 1) & mask;
    key[i] = c;
    return count[i]++;
}

/* One c fewer, which the table holds: returns its count before. */
static int count_down(uint64_t *key, int *count, size_t mask, uint64_t c) {
    size_t i = slot_of(c, mask);
    while (!count[i] || key[i] != c) i = (i + 1) & mask;
    int before = count[i]--;
    if (before > 1) return before;
    /* the entry at j moves into the hole at i unless its home slot lies
       cyclically in (i, j] */
    for (size_t j = (i + 1) & mask; count[j]; j = (j + 1) & mask) {
        size_t home = slot_of(key[j], mask);
        if (i <= j ? home <= i || home > j : home <= i && home > j) {
            key[i] = key[j];
            count[i] = count[j];
            count[j] = 0;
            i = j;
        }
    }
    return before;
}

/* The slots of the table of an edge of d vertices. */
static uint64_t table_size(int d) {
    uint64_t cap = 1;
    while (cap < 2 * (uint64_t)d) cap *= 2;
    return cap;
}

static int by_u64(const void *a, const void *b) {
    uint64_t x = *(const uint64_t *)a, y = *(const uint64_t *)b;
    return (x > y) - (x < y);
}

/* Is an edge of size colors, once of them unique, bad: at least 7/8 of
   its vertices colored non-uniquely? */
static int is_bad(long long size, long long once) {
    return 8 * (size - once) >= 7 * size;
}

/* The resampling loop of _kernel_py.near_uniform: every vertex draws a
   color, then, while some edge is bad, the vertices of the lowest bad
   edge draw again, at most max_rounds times.  Only the edges that meet
   a resampled vertex are checked again.  The draws continue the Twister
   state[0..624], index state[624], so each equals the pure kernel's.
   The edges are CSR int arrays as in solve_cf; each vertex of an edge
   appears once.  On FOUND color[v] is v's color and result[0] the
   rounds; at the cap result holds the rounds and the lowest bad edge.
   The finished coloring is checked again by sorting each edge's colors.
   One zeroed block of 8-byte words holds the tables' starts and keys,
   the bad edges as a bitset and the sorting buffer; one of ints, the
   counts, each edge's unique colors and the incidence.  Status codes:
   0 = done, 2 = round cap, 3 = out of memory, 4 = the edge result[1]
   names a vertex outside [0, n), 5 = the final check failed. */
int near_uniform(int n, int m, const int *edge_start, const int *edge_vert,
                 const int *which, const long long *lo, const long long *size,
                 const long long *off, const long long *extra, const unsigned *state,
                 long long max_rounds, long long *color, long long *result) {
    Lists lists = {which, lo, size, off, extra};
    Twister rng;
    for (int i = 0; i < MT_N; i++) rng.mt[i] = (uint32_t)state[i];
    rng.index = (int)state[MT_N];
    size_t slots = 0, widest = 0, items = (size_t)edge_start[m], bad_words = ((size_t)m + 63) / 64;
    int row;
    if (rows_in_range(n, m, edge_start, edge_vert, &row)) {
        result[1] = row;
        return BAD_ADJACENCY;
    }
    for (int e = 0; e < m; e++) {
        int d = edge_start[e + 1] - edge_start[e];
        slots += (size_t)table_size(d);
        if ((size_t)d > widest) widest = (size_t)d;
    }
    size_t words = (size_t)m + 1 + slots + bad_words + widest;
    uint64_t *wide = calloc(words, sizeof *wide);
    int *narrow = calloc(slots + (size_t)m + (size_t)n + 1 + items, sizeof *narrow);
    if (!wide || !narrow) {
        free(wide);
        free(narrow);
        return NO_MEMORY;
    }
    uint64_t *tab = wide, *key = tab + m + 1, *bad = key + slots, *buffer = bad + bad_words;
    int *count = narrow, *once = count + slots, *inc_start = once + m, *inc_edge = inc_start + n + 1;
    for (int e = 0; e < m; e++) tab[e + 1] = tab[e] + table_size(edge_start[e + 1] - edge_start[e]);
    incidence(n, m, edge_start, edge_vert, inc_start, inc_edge);

    for (int v = 0; v < n; v++) color[v] = draw(&lists, &rng, v);
    for (int e = 0; e < m; e++) {
        size_t mask = (size_t)(tab[e + 1] - tab[e]) - 1;
        for (int i = edge_start[e]; i < edge_start[e + 1]; i++) {
            int y = count_up(key + tab[e], count + tab[e], mask, (uint64_t)color[edge_vert[i]]);
            once[e] += (y == 0) - (y == 1);
        }
        if (is_bad(edge_start[e + 1] - edge_start[e], once[e]))
            bad[e / 64] |= (uint64_t)1 << (e % 64);
    }
    long long rounds = 0;
    int status = FOUND;
    for (;;) {
        size_t w = 0;
        while (w < bad_words && !bad[w]) w++;
        if (w == bad_words) break;
        int worst = (int)(w * 64) + lowest(bad[w]);
        if (rounds >= max_rounds) {
            result[1] = worst;
            status = OVER_BUDGET;
            break;
        }
        for (int i = edge_start[worst]; i < edge_start[worst + 1]; i++) {
            int v = edge_vert[i];
            long long old = color[v], new = color[v] = draw(&lists, &rng, v);
            if (new == old) continue;
            for (int j = inc_start[v]; j < inc_start[v + 1]; j++) {
                int e = inc_edge[j];
                size_t mask = (size_t)(tab[e + 1] - tab[e]) - 1;
                int x = count_down(key + tab[e], count + tab[e], mask, (uint64_t)old);
                int y = count_up(key + tab[e], count + tab[e], mask, (uint64_t)new);
                /* old: 1 -> 0 loses a unique color, 2 -> 1 gains one;
                   new: 0 -> 1 gains one, 1 -> 2 loses one */
                once[e] += (x == 2) - (x == 1) + (y == 0) - (y == 1);
            }
        }
        rounds++;
        for (int i = edge_start[worst]; i < edge_start[worst + 1]; i++) {
            int v = edge_vert[i];
            for (int j = inc_start[v]; j < inc_start[v + 1]; j++) {
                int e = inc_edge[j];
                uint64_t bit = (uint64_t)1 << (e % 64);
                if (is_bad(edge_start[e + 1] - edge_start[e], once[e]))
                    bad[e / 64] |= bit;
                else
                    bad[e / 64] &= ~bit;
            }
        }
    }
    result[0] = rounds;
    for (int e = 0; status == FOUND && e < m; e++) {
        int d = edge_start[e + 1] - edge_start[e], unique = 0;
        for (int i = 0; i < d; i++) buffer[i] = (uint64_t)color[edge_vert[edge_start[e] + i]];
        qsort(buffer, (size_t)d, sizeof *buffer, by_u64);
        for (int i = 0; i < d; i++)
            unique += (i == 0 || buffer[i - 1] != buffer[i]) && (i == d - 1 || buffer[i + 1] != buffer[i]);
        if (is_bad(d, unique)) status = CHECK_FAILED;
    }
    free(wide);
    free(narrow);
    return status;
}

static int by_ll(const void *a, const void *b) {
    long long x = *(const long long *)a, y = *(const long long *)b;
    return (x > y) - (x < y);
}

/* Sorts x[0..len) and drops its repeats; returns the count kept. */
static long long distinct(long long *x, long long len) {
    long long kept = 0;
    qsort(x, (size_t)len, sizeof *x, by_ll);
    for (long long i = 0; i < len; i++)
        if (kept == 0 || x[kept - 1] != x[i]) x[kept++] = x[i];
    return kept;
}

/* Is c among the ascending x[0..len)? */
static int holds(const long long *x, long long len, long long c) {
    long long a = 0, b = len;
    while (a < b) {
        long long mid = a + (b - a) / 2;
        if (x[mid] < c)
            a = mid + 1;
        else
            b = mid;
    }
    return a < len && x[a] == c;
}

/* Is c in list d: among its colors, or in its range but not removed? */
static int list_has(const Lists *l, int d, long long c) {
    const long long *x = l->extra + l->off[d];
    long long len = l->off[d + 1] - l->off[d];
    if (l->lo[d] < 0) return holds(x, len, c);
    return c >= l->lo[d] && c < l->lo[d] + l->size[d] + len && !holds(x, len, c);
}

/* The pipeline checks, numbered as _kernel_py.CHECKS; info[2] names the
   one that failed, info[3] its vertex and info[4] the count found. */
enum { STRUCTURE_A = 1, STRUCTURE_C, LIST_SIZE, X_SIZE, Y_SIZE, EMPTY_LIST };

/* The seed-independent stages of prob.cfcn_pipeline, as
   _kernel_py.pipeline_core runs them, on the graph's CSR adjacency (rows
   in [0, n) checked here) and lists in near_uniform's form.

   A is the greedy maximal independent set by increasing vertex; the
   other vertices are colored by first_fit, in increasing
   order, into s classes; b = min(s, b_cap), B is the first b classes
   and C the rest.  in_a, the closed A-neighbors of every vertex, is CSR
   filled from the rows of A, and in_b, the B-neighbors of every
   C-vertex, from the rows of B straight into H2's edges.  Then, each
   in increasing vertex order, the checks: 1..k-1 A-neighbors outside
   A, b..(k-1)b B-neighbors in C, lists of at least (k-1)b + 2 colors
   in A.  H1 is colored first-fit: each A-vertex takes the first color
   of its list that no smaller A-vertex sharing an in_a row of a
   B-vertex has, so every in_a row of A u B is colored distinctly and
   its witness is its smallest color.  When C is not empty, X_u and Y_u
   are the witnesses of u's A-neighbors and of its closed B-neighbors,
   checked in increasing order against k - 1, (k-1)(b-1) + 1 and the
   size of L_u.

   Outputs: part holds A then each class (n ints), the bounds of those
   groups (s + 2 from part + n) and the starts of X_u, Y_u for the i-th
   B-vertex at rows 2i and 2i + 1 (from part + 2n + 3); h2 the starts of
   H2's edges and from h2 + n + 2 their vertices, B-indices; colors the
   H1 color of each A-vertex, in order, and from colors + n the colors of
   X_u and Y_u, each ascending; info s, b and the failed check, if any.
   One zeroed block of ints and one of long longs hold the scratch.
   Status codes: 0 = done, checks failed or not, 1 = declined (H1's
   greedy dead end, which needs the exact solver), 3 = out of memory, 4 =
   the row info[3] names a vertex outside [0, n). */
int pipeline_core(int n, const int *adj_start, const int *adj_vert, int k, int b_cap,
                  const int *which, const long long *lo, const long long *size,
                  const long long *off, const long long *extra,
                  int *part, int *h2, long long *colors, long long *info) {
    Lists lists = {which, lo, size, off, extra};
    int row;
    if (rows_in_range(n, n, adj_start, adj_vert, &row)) {
        info[3] = row;
        return BAD_ADJACENCY;
    }
    size_t items = (size_t)n + (size_t)adj_start[n];
    int *mark = calloc(6 * (size_t)n + 4 + items, sizeof *mark);
    long long *wit = calloc((size_t)n + items, sizeof *wit);
    if (!mark || !wit) {
        free(mark);
        free(wit);
        return NO_MEMORY;
    }
    /* mark: 1 in A, 2 next to A; rank: a vertex's index in B or in C */
    int *cls = mark + n, *order = cls + n, *rank = order + n, *ia_start = rank + n;
    int *ia = ia_start + n + 2, *stamp = ia + items, len = 0, s = 0, nb = 0, nc = 0;
    long long *buf = wit + n, *rm = colors + n, top = 0;
    int status = FOUND;
    for (int v = 0; v < n; v++) {
        cls[v] = -1;
        if (mark[v]) {
            order[len++] = v;
            continue;
        }
        /* a neighbor before v is next to A already */
        mark[v] = 1;
        for (int i = adj_start[v]; i < adj_start[v + 1]; i++) mark[adj_vert[i]] = 2;
    }
    first_fit(adj_start, adj_vert, len, order, cls, stamp);
    for (int v = 0; v < n; v++)
        if (cls[v] >= s) s = cls[v] + 1;
    int b = s < b_cap ? s : b_cap;
    int *members = part, *bounds = part + n, *rm_start = part + 2 * (size_t)n + 3;
    int *h2_start = h2, *h2_vert = h2 + (size_t)n + 2;
    info[0] = s;
    info[1] = b;
    /* groups: A is 0, class c is c + 1; counted into bounds[g + 2], so
       that the fill leaves bounds[g + 1] at the end of group g */
    for (int v = 0; v < n; v++) bounds[cls[v] + 3]++;
    for (int g = 2; g <= s + 1; g++) bounds[g] += bounds[g - 1];
    for (int v = 0; v < n; v++) {
        members[bounds[cls[v] + 2]++] = v;
        if (cls[v] >= b)
            rank[v] = nc++;
        else if (cls[v] >= 0)
            rank[v] = nb++;
    }

    /* in_a from the rows of A, and H2's edges from the rows of B, each
       counted into start[x + 2] before the fill */
    for (int a = 0; a < n; a++) {
        if (cls[a] >= 0) continue;
        ia_start[a + 2]++;
        for (int i = adj_start[a]; i < adj_start[a + 1]; i++) ia_start[adj_vert[i] + 2]++;
    }
    for (int u = 0; u < n; u++) {
        if (cls[u] < 0 || cls[u] >= b) continue;
        for (int i = adj_start[u]; i < adj_start[u + 1]; i++)
            if (cls[adj_vert[i]] >= b) h2_start[rank[adj_vert[i]] + 2]++;
    }
    for (int v = 2; v <= n + 1; v++) ia_start[v] += ia_start[v - 1];
    for (int e = 2; e <= nc + 1; e++) h2_start[e] += h2_start[e - 1];
    for (int a = 0; a < n; a++) {
        if (cls[a] >= 0) continue;
        ia[ia_start[a + 1]++] = a;
        for (int i = adj_start[a]; i < adj_start[a + 1]; i++) ia[ia_start[adj_vert[i] + 1]++] = a;
    }
    for (int u = 0; u < n; u++) {
        if (cls[u] < 0 || cls[u] >= b) continue;
        for (int i = adj_start[u]; i < adj_start[u + 1]; i++)
            if (cls[adj_vert[i]] >= b) h2_vert[h2_start[rank[adj_vert[i]] + 1]++] = rank[u];
    }

    long long k1 = (long long)k - 1;
    for (int v = 0; v < n && !info[2]; v++) {
        long long count = ia_start[v + 1] - ia_start[v];
        if (cls[v] >= 0 && (count < 1 || count > k1)) {
            info[2] = STRUCTURE_A;
            info[3] = v;
            info[4] = count;
        }
    }
    for (int v = 0; v < n && !info[2]; v++) {
        if (cls[v] < b) continue;
        long long count = h2_start[rank[v] + 1] - h2_start[rank[v]];
        if (count < b || count > k1 * b) {
            info[2] = STRUCTURE_C;
            info[3] = v;
            info[4] = count;
        }
    }
    for (int a = 0; a < n && !info[2]; a++)
        if (cls[a] < 0 && size[which[a]] < k1 * b + 2) {
            info[2] = LIST_SIZE;
            info[3] = a;
            info[4] = size[which[a]];
        }
    if (info[2]) goto done;

    /* H1: wit[a] is a's color, taken from the colors of the smaller
       A-vertices on the in_a rows of a's B-neighbors */
    for (int a = 0; a < n; a++) {
        if (cls[a] >= 0) continue;
        long long taken = 0, i = 0, end = size[which[a]];
        for (int j = adj_start[a]; j < adj_start[a + 1]; j++) {
            int v = adj_vert[j];
            if (cls[v] < 0 || cls[v] >= b) continue;
            for (int x = ia_start[v]; x < ia_start[v + 1]; x++)
                if (ia[x] < a) buf[taken++] = wit[ia[x]];
        }
        taken = distinct(buf, taken);
        while (i < end && holds(buf, taken, list_color(&lists, which[a], i))) i++;
        if (i == end) {
            status = DECLINED;
            goto done;
        }
        wit[a] = list_color(&lists, which[a], i);
    }
    for (int v = 0, i = 0; v < n; v++) {
        if (cls[v] < 0) colors[i++] = wit[v];
        if (cls[v] < 0 || cls[v] >= b) continue;
        wit[v] = wit[ia[ia_start[v]]];
        for (int x = ia_start[v] + 1; x < ia_start[v + 1]; x++)
            if (wit[ia[x]] < wit[v]) wit[v] = wit[ia[x]];
    }
    if (nc == 0) goto done;

    /* X_u and Y_u, written to rm and checked in turn */
    for (int u = 0, i = 0; u < n; u++) {
        if (cls[u] < 0 || cls[u] >= b) continue;
        long long *x = rm + top, nx = 0, ny = 0;
        for (int j = ia_start[u]; j < ia_start[u + 1]; j++) x[nx++] = wit[ia[j]];
        nx = distinct(x, nx);
        long long *y = x + nx;
        y[ny++] = wit[u];
        for (int j = adj_start[u]; j < adj_start[u + 1]; j++)
            if (cls[adj_vert[j]] >= 0 && cls[adj_vert[j]] < b) y[ny++] = wit[adj_vert[j]];
        ny = distinct(y, ny);
        int d = which[u], check = nx > k1 ? X_SIZE : ny > k1 * (b - 1) + 1 ? Y_SIZE : 0;
        if (!check && size[d] <= nx + ny) {
            /* L_u is empty once reduced when X_u u Y_u covers it */
            long long covered = 0;
            for (long long j = 0; j < nx; j++) covered += list_has(&lists, d, x[j]);
            for (long long j = 0; j < ny; j++) covered += !holds(x, nx, y[j]) && list_has(&lists, d, y[j]);
            if (covered == size[d]) check = EMPTY_LIST;
        }
        if (check) {
            info[2] = check;
            info[3] = u;
            info[4] = check == X_SIZE ? nx : check == Y_SIZE ? ny : 0;
            goto done;
        }
        top += nx + ny;
        rm_start[2 * i + 1] = rm_start[2 * i] + (int)nx;
        rm_start[2 * i + 2] = (int)top;
        i++;
    }
done:
    free(mark);
    free(wit);
    return status;
}
