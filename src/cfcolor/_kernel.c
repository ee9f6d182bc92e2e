/* Compiled kernels, loaded with ctypes by cfcolor.kernels: the
   conflict-free search solve_cf, the induced-star search max_star and
   the graph file reader read_graph.

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

   max_star takes a graph's adjacency as CSR int arrays, Graph.csr, and
   runs the branch and bound of _kernel_py.max_star on word bitsets, one
   zeroed allocation per call again.  Status codes: 0 = done, 3 = out of
   memory, 4 = the row *out names a vertex outside [0, n) or its own
   vertex, or *out is -1 and the row starts decrease somewhere.

   read_graph reads the text that fileio.format_graph writes into those
   CSR arrays, every row sorted, in one allocation that free_graph
   releases; it declines every other text, which fileio then reads
   record by record.  Status codes: 0 = read, 1 = declined, 3 = out of
   memory. */

#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { FOUND = 0, EXHAUSTED = 1, OVER_BUDGET = 2, NO_MEMORY = 3, BAD_ADJACENCY = 4 };
enum { DECLINED = 1 };  /* read_graph: not a text format_graph writes */
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
   in edge-index order.  inc_start starts zeroed; it counts each vertex's
   edges, sums them to the end of its run, and the fill from the last
   edge back leaves it at the start of its run. */
static void incidence(CF *s) {
    int *start = s->inc_start;
    for (int i = 0; i < s->edge_start[s->m]; i++) start[s->edge_vert[i]]++;
    for (int v = 1; v <= s->n; v++) start[v] += start[v - 1];
    for (int ei = s->m - 1; ei >= 0; ei--)
        for (int i = s->edge_start[ei]; i < s->edge_start[ei + 1]; i++)
            s->inc_edge[--start[s->edge_vert[i]]] = ei;
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
    incidence(&s);
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
   Vertex v's neighbors are adj_vert[adj_start[v]..adj_start[v+1]).
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
    for (int v = 0; v < n; v++) {
        if (adj_start[v + 1] < adj_start[v]) {
            *out = -1;
            return BAD_ADJACENCY;
        }
        if ((size_t)(adj_start[v + 1] - adj_start[v]) >= depth)
            depth = (size_t)(adj_start[v + 1] - adj_start[v]) + 1;
    }
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

/* The canonical decimal (no sign, no leading zero) at text[*pos], which
   must be at most limit and followed by the byte end; -1 otherwise.  On
   success *pos moves past end. */
static long long decimal(const char *text, size_t len, size_t *pos, long long limit, char end) {
    size_t i = *pos;
    if (i >= len || text[i] < '1' || text[i] > '9') return -1;
    long long value = 0;
    for (; i < len && text[i] >= '0' && text[i] <= '9'; i++) {
        value = value * 10 + (text[i] - '0');
        if (value > limit) return -1;
    }
    if (i >= len || text[i] != end) return -1;
    *pos = i + 1;
    return value;
}

/* The line `e U V\n` at text[*pos] with 1 <= U, V <= n, as 0-based
   *u and *v; 0 when the text there is anything else. */
static int edge_line(const char *text, size_t len, size_t *pos, long long n, int *u, int *v) {
    if (*pos + 2 > len || text[*pos] != 'e' || text[*pos + 1] != ' ') return 0;
    *pos += 2;
    long long a = decimal(text, len, pos, n, ' ');
    long long b = a < 0 ? -1 : decimal(text, len, pos, n, '\n');
    if (b < 0) return 0;
    *u = (int)(a - 1);
    *v = (int)(b - 1);
    return 1;
}

static int by_int(const void *a, const void *b) {
    int x = *(const int *)a, y = *(const int *)b;
    return (x > y) - (x < y);
}

/* The simple graph of a text of len bytes exactly as format_graph writes
   it: `p graph N M\n`, then M >= 1 lines `e U V\n`, canonical decimals,
   1 <= U, V <= N, nothing after the last line.  Every edge line takes at
   least 6 bytes, so M is at most len / 6, and N and 2M must fit an int:
   no header count sizes an allocation the text cannot back.

   On READ, size holds N and M and *csr one block of N + 2 + 4M ints:
   the CSR starts csr[0..N], from csr + N + 2 the 2M neighbors, every
   row sorted, and then the 2M ends of the lines in line order.  The
   caller frees it with free_graph.  The one pass over the text keeps
   the ends and counts the degrees into start[u + 2], so that after the
   prefix sums start[u + 1] is the start of row u; the fill from the
   ends puts row u at start[u + 1]++, which leaves start[u + 1] at its
   end.  Rows come out sorted when the lines are, as format_graph writes
   them; any other row is sorted in place.  Status codes: 0 = read, 1 =
   declined (any other text, a self-loop or a duplicate edge, reversed or
   not), 3 = out of memory. */
int read_graph(const char *text, size_t len, int *size, int **csr) {
    static const char head[] = "p graph ";
    size_t pos = sizeof head - 1;
    *csr = NULL;
    if (len < pos || memcmp(text, head, pos) != 0) return DECLINED;
    long long n = decimal(text, len, &pos, INT_MAX, ' ');
    long long edges_max = (long long)(len / 6 < INT_MAX / 2 ? len / 6 : INT_MAX / 2);
    long long m = n < 0 ? -1 : decimal(text, len, &pos, edges_max, '\n');
    if (m < 0) return DECLINED;
    int *start = calloc((size_t)n + 2 + 4 * (size_t)m, sizeof *start);
    if (!start) return NO_MEMORY;
    int *vert = start + n + 2, *ends = vert + 2 * m;
    for (long long e = 0; e < m; e++) {
        int *uv = ends + 2 * e;
        if (!edge_line(text, len, &pos, n, uv, uv + 1) || uv[0] == uv[1]) goto declined;
        start[(size_t)uv[0] + 2]++;
        start[(size_t)uv[1] + 2]++;
    }
    if (pos != len) goto declined;
    for (long long i = 2; i <= n + 1; i++) start[i] += start[i - 1];
    for (long long e = 0; e < m; e++) {
        int u = ends[2 * e], v = ends[2 * e + 1];
        vert[start[(size_t)u + 1]++] = v;
        vert[start[(size_t)v + 1]++] = u;
    }
    for (long long x = 0; x < n; x++) {
        int *row = vert + start[x], d = start[x + 1] - start[x], i = 1;
        while (i < d && row[i - 1] < row[i]) i++;
        if (i >= d) continue;
        qsort(row, (size_t)d, sizeof *row, by_int);
        for (i = 1; i < d; i++)
            if (row[i - 1] == row[i]) goto declined;
    }
    size[0] = (int)n;
    size[1] = (int)m;
    *csr = start;
    return FOUND;
declined:
    free(start);
    return DECLINED;
}

void free_graph(int *csr) {
    free(csr);
}
