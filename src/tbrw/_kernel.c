/* The step loop of _kernels._simulate_python, compiled by gcc on import.
 *
 * Same arena layout, same arithmetic and, on a well-formed arena, the same
 * return values as the Python loop, which is its reference: a jump uniform
 * u maps to neighbour index
 * (int64_t)(u * (double)deg), clamped to deg - 1, with the parent first and
 * then the children in creation order.  The Python wrapper checks the
 * arrays, their lengths and the scalars before the call; the links read
 * from the arena are checked here, and a link to no existing node returns
 * -2 instead of reading out of bounds.
 */
#include <stdint.h>

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
