/* The loops of _kernels._simulate_python, _kernels._simulate_batch_python
 * and _kernels._grand_python, compiled by gcc on import.
 *
 * Same arena layout, same arithmetic and, on a well-formed arena, the same
 * return values as the Python loops, which are their references: a jump
 * uniform u maps to neighbour index
 * (int64_t)(u * (double)deg), clamped to deg - 1, with the parent first and
 * then the children in creation order.  The Python wrappers check the
 * arrays, their lengths and the scalars before the call; the links read
 * from the arena are checked here, and a link to no existing node returns
 * -2 instead of reading out of bounds.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define NOT_A_NODE(v) ((v) < 0 || (v) >= free_node)

int64_t tbrw_simulate(int64_t *parent, int64_t *depth, int64_t *birth,
                      int64_t *first_child, int64_t *next_sibling,
                      int64_t *last_child, int64_t *n_children,
                      int64_t n_nodes, int64_t pos, int64_t horizon,
                      const int64_t *xi, const double *jump_u,
                      int64_t *positions, int64_t *depths, uint8_t *leaf_flags)
{
    int64_t free_node = n_nodes;
    positions[0] = pos;
    depths[0] = depth[pos];
    leaf_flags[0] = (n_children[pos] + (parent[pos] >= 0)) == 1;
    for (int64_t n = 1; n <= horizon; n++) {
        for (int64_t k = 0; k < xi[n]; k++) {
            int64_t node = free_node++;
            parent[node] = pos;
            depth[node] = depth[pos] + 1;
            birth[node] = n;
            if (first_child[pos] < 0)
                first_child[pos] = node;
            else if (NOT_A_NODE(last_child[pos]))
                return -2;
            else
                next_sibling[last_child[pos]] = node;
            last_child[pos] = node;
            n_children[pos] += 1;
        }
        int64_t has_parent = parent[pos] >= 0;
        int64_t deg = n_children[pos] + has_parent;
        if (deg == 0)
            return -1;  /* isolated walker: no legal move */
        int64_t r = (int64_t)(jump_u[n] * (double)deg);
        if (r >= deg)
            r = deg - 1;
        if (has_parent && r == 0) {
            pos = parent[pos];
        } else {
            int64_t child = first_child[pos];
            for (int64_t k = 0; k < r - has_parent && !NOT_A_NODE(child); k++)
                child = next_sibling[child];
            pos = child;
        }
        if (NOT_A_NODE(pos))
            return -2;
        positions[n] = pos;
        depths[n] = depth[pos];
        leaf_flags[n] = (n_children[pos] + (parent[pos] >= 0)) == 1;
    }
    return free_node;
}

/* Run tbrw_simulate once per row of xi and jump_u, each row from the same
 * initial tree.  The arena is one (7, capacity) block whose rows are the
 * node arrays in tbrw_simulate's argument order; tree is the (7, n_nodes)
 * block of the initial tree.  Before each row the arena gets the tree in
 * front and empty slots after it, as engine fills a fresh arena (no parent,
 * depth and birth 0, no links, no children); only the slots the previous
 * row used are refilled.  finals[r] is row r's final node count, or -1 when
 * its walker was isolated; its trajectory rows are then written only up to
 * that step, and the next row runs.  Returns 0, or -2 on a link to no
 * existing node. */
int64_t tbrw_simulate_batch(int64_t *arena, int64_t capacity,
                            const int64_t *tree, int64_t n_nodes, int64_t pos,
                            int64_t rows, int64_t horizon,
                            const int64_t *xi, const double *jump_u,
                            int64_t *positions, int64_t *depths,
                            uint8_t *leaf_flags, int64_t *finals)
{
    static const int64_t empty[7] = {-1, 0, 0, -1, -1, -1, 0};
    int64_t used = capacity, steps = horizon + 1;
    for (int64_t r = 0; r < rows; r++) {
        for (int k = 0; k < 7; k++) {
            int64_t *a = arena + k * capacity;
            memcpy(a, tree + k * n_nodes, n_nodes * sizeof(int64_t));
            for (int64_t j = n_nodes; j < used; j++)
                a[j] = empty[k];
        }
        int64_t final = tbrw_simulate(
            arena, arena + capacity, arena + 2 * capacity,
            arena + 3 * capacity, arena + 4 * capacity, arena + 5 * capacity,
            arena + 6 * capacity, n_nodes, pos, horizon, xi + r * steps,
            jump_u + r * steps, positions + r * steps, depths + r * steps,
            leaf_flags + r * steps);
        if (final == -2)
            return -2;
        finals[r] = final;
        used = final >= 0 ? final : capacity;
    }
    return 0;
}

/* The grand swarm: balls are the gaps between the sorted cuts, node w's
 * label is the parts label_lo/hi[label_start[w] .. label_start[w + 1]). */

/* 1 when [lo, hi] lies inside one part of w's label.  The parts of a label
 * are sorted and disjoint, so only the last part starting at or below lo
 * can hold the ball. */
static int holds(const int64_t *start, const double *part_lo,
                 const double *part_hi, int64_t w, double lo, double hi)
{
    int64_t a = start[w], b = start[w + 1];
    if (a >= b)
        return 0;
    while (b - a > 1) {
        int64_t m = a + (b - a) / 2;
        if (part_lo[m] <= lo)
            a = m;
        else
            b = m;
    }
    return part_lo[a] <= lo && hi <= part_hi[a];
}

static int by_node_then_ball(const void *x, const void *y)
{
    const int64_t *a = x, *b = y;
    if (a[0] != b[0])
        return a[0] < b[0] ? -1 : 1;
    return (a[1] > b[1]) - (a[1] < b[1]);
}

/* The r-th neighbour of v (parent first, then children in creation order)
 * whose label holds [lo, hi], or, with r < 0, how many there are; -2 for a
 * link to no existing node. */
static int64_t eligible(const int64_t *parent, const int64_t *first_child,
                        const int64_t *next_sibling, const int64_t *n_children,
                        int64_t free_node, const int64_t *start,
                        const double *part_lo, const double *part_hi,
                        int64_t v, double lo, double hi, int64_t r)
{
    int64_t count = 0, w = parent[v];
    if (w >= 0) {
        if (NOT_A_NODE(w))
            return -2;
        if (holds(start, part_lo, part_hi, w, lo, hi) && count++ == r)
            return w;
    }
    w = first_child[v];
    for (int64_t c = 0; c < n_children[v]; c++, w = next_sibling[w]) {
        if (NOT_A_NODE(w))
            return -2;
        if (holds(start, part_lo, part_hi, w, lo, hi) && count++ == r)
            return w;
    }
    return r < 0 ? count : -2;
}

int64_t tbrw_grand(int64_t *parent, int64_t *depth, int64_t *birth,
                   int64_t *first_child, int64_t *next_sibling,
                   int64_t *last_child, int64_t *n_children,
                   int64_t n_nodes, int64_t pos, int64_t horizon,
                   const double *stream, int64_t stream_len,
                   double *uniforms, int64_t *label_start,
                   double *label_lo, double *label_hi, int64_t *ball_steps)
{
    double *cuts = malloc((horizon + 2) * sizeof(double));
    int64_t *ball_node = malloc((horizon + 1) * sizeof(int64_t));
    int64_t *pairs = malloc(2 * (horizon + 1) * sizeof(int64_t));
    int64_t free_node = n_nodes, n_parts = n_nodes, s = 0, result = -4;
    if (cuts == NULL || ball_node == NULL || pairs == NULL)
        goto done;
    for (int64_t v = 0; v < n_nodes; v++) {
        label_start[v] = v;
        label_lo[v] = 0.0;
        label_hi[v] = 1.0;
    }
    label_start[n_nodes] = n_nodes;
    cuts[0] = 0.0;
    cuts[1] = 1.0;
    ball_node[0] = ball_steps[0] = pos;

    for (int64_t n = 1; n <= horizon; n++) {
        /* n balls, n + 1 cuts; U is redrawn while it is 0 or a cut */
        double u;
        int64_t k;
        do {
            result = -3;
            if (s >= stream_len)
                goto done;
            u = stream[s++];
            int64_t a = 0, b = n;  /* k: the last cut at or below u */
            while (b - a > 1) {
                int64_t m = a + (b - a) / 2;
                if (cuts[m] <= u)
                    a = m;
                else
                    b = m;
            }
            k = a;
        } while (cuts[k] == u);
        uniforms[n - 1] = u;

        /* one new node per vertex holding a ball from k on, in node order,
         * labelled with those balls' parts of [u, 1] in ball order */
        for (int64_t i = k; i < n; i++) {
            pairs[2 * (i - k)] = ball_node[i];
            pairs[2 * (i - k) + 1] = i;
        }
        qsort(pairs, n - k, 2 * sizeof(int64_t), by_node_then_ball);
        for (int64_t g = 0; g < n - k; g++) {
            int64_t v = pairs[2 * g], i = pairs[2 * g + 1];
            if (g == 0 || v != pairs[2 * g - 2]) {
                int64_t node = free_node++;
                parent[node] = v;
                depth[node] = depth[v] + 1;
                birth[node] = n;
                first_child[node] = next_sibling[node] = last_child[node] = -1;
                n_children[node] = 0;
                if (first_child[v] < 0)
                    first_child[v] = node;
                else if (NOT_A_NODE(last_child[v])) {
                    result = -2;
                    goto done;
                } else
                    next_sibling[last_child[v]] = node;
                last_child[v] = node;
                n_children[v] += 1;
            }
            label_lo[n_parts] = i == k ? u : cuts[i];
            label_hi[n_parts] = cuts[i + 1];
            n_parts++;
            label_start[free_node] = n_parts;
        }

        /* ball k splits at u */
        memmove(cuts + k + 2, cuts + k + 1, (n - k) * sizeof(double));
        cuts[k + 1] = u;
        memmove(ball_node + k + 2, ball_node + k + 1,
                (n - 1 - k) * sizeof(int64_t));
        ball_node[k + 1] = ball_node[k];

        /* every ball jumps, in ball order, to a uniform eligible neighbour */
        result = -3;
        if (s + n + 1 > stream_len)
            goto done;
        for (int64_t i = 0; i <= n; i++) {
            double lo = cuts[i], hi = cuts[i + 1];
            int64_t deg = eligible(parent, first_child, next_sibling,
                                   n_children, free_node, label_start,
                                   label_lo, label_hi, ball_node[i], lo, hi, -1);
            result = deg < 0 ? deg : -1;  /* -1: no eligible neighbour */
            if (deg <= 0)
                goto done;
            int64_t r = (int64_t)(stream[s++] * (double)deg);
            if (r >= deg)
                r = deg - 1;
            ball_node[i] = eligible(parent, first_child, next_sibling,
                                    n_children, free_node, label_start,
                                    label_lo, label_hi, ball_node[i], lo, hi, r);
        }
        memcpy(ball_steps + n * (n + 1) / 2, ball_node,
               (n + 1) * sizeof(int64_t));
    }
    result = free_node;
done:
    free(cuts);
    free(ball_node);
    free(pairs);
    return result;
}
