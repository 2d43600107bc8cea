/*
 * The array engine's request kernel: the bin loop, the recursion walk, the
 * path read and the greedy write-backs, over the engine's own objects, and
 * the stash they all work on; and the trainer's gradient sum (`group_sum`,
 * at the end: numpy's reduceat arithmetic over rows read in place).
 *
 * Path ORAM (Stefanov et al., CCS'13) reads a path into the stash and
 * writes it back by the eviction rule, occupancy aware: every stash block
 * whose leaf shares a level with the path may go back onto it, as deep as
 * that prefix allows, into the free slots each bucket actually has.
 * LAORAM reads several paths before writing them back, so a later
 * write-back finds buckets an earlier one refilled; a held training step
 * writes its read paths back at its commit as one subtree; a recursive
 * position map's levels are small Path ORAMs on the same read and
 * write-back.  `serve` runs a whole request (its bins, the commit bin of a
 * held step, or one dummy read), walking a recursive map for every remap;
 * `walk` is one access to a recursive map.  Every tree is given as held:
 *
 *   stash       a Stash (below): the fetch appends to it, a write-back scans
 *               its order array and deletes every entry it places by
 *               position, and the order of the rest is kept;
 *   caps, level_base
 *               per level, the bucket capacity and the first slot of the
 *               level (sequences of depth + 1 ints);
 *   slots, occ  the tree's slot buffer (int32, -1 empty) and occupancy
 *               buffer (uint8), written in place;
 *   depth       the tree's depth (leaves are [0, 2**depth)); level l's
 *               buckets are 2**l - 1 onwards, heap order;
 *   labels      the fetch's labels (int32): a fetched id enters the stash
 *               under labels[id] (the map's entries, or a level's labels).
 *
 * Every write-back decision is the per-object reference planner's
 * (tests/oracle/write_back.py): entries grouped by the level they can reach
 * in stash order, a LIFO pool per bucket, slots filled in ascending order;
 * the fetch reads as the reference tree does (tests/oracle/tree.py),
 * `serve` decides what the reference client's per-bin access decides
 * (tests/oracle/laoram.py) and the walk what the reference map's does
 * (tests/oracle/position_map.py).  Every operand is checked before the
 * first write, so a call either raises TypeError / ValueError and leaves
 * the stashes and the trees as they were, or writes only slots and
 * occupancies of the paths (or subtree) it reads and writes back.  The
 * stash holds C ints, validated when they are inserted, so no stash touch
 * boxes an int or runs Python code.  `serve` calls back into Python (the
 * plan, the leaf streams, the observer); it holds no stash position and no
 * scratch pointer across those calls, and a callback that starts a second
 * `serve` on its thread gets a RuntimeError.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdarg.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Leaves are held in a long long, and 1 << depth must fit one. */
#define MAX_DEPTH 62
/* Occupancies are uint8. */
#define MAX_CAPACITY 255
/* The struct format codes of an 8-byte signed item (numpy's int64). */
#define INT64_CODES "lq"

/* A stash entry in a write-back: its position in the order array, and the
 * bit length of (leaf ^ path), so it reaches depth - bits. */
typedef struct {
    int32_t pos;
    int32_t bits;
} Item;

typedef struct {
    Item item;
    long long node; /* the entry's deepest node in the subtree, at its level */
} HeldItem;

typedef struct {
    long long node;
    Py_ssize_t start;
    Py_ssize_t len;
} Carried;

typedef struct {
    long long caps[MAX_DEPTH + 1];
    long long level_base[MAX_DEPTH + 1];
    long long node_base[MAX_DEPTH + 1];
    int32_t *slots;
    uint8_t *occ;
    Py_ssize_t num_slots;
    Py_ssize_t num_buckets;
    int depth;
} Tree;

/* ------------------------------------------------------------------ */
/* Stash: an insertion-ordered id -> leaf table                         */
/* ------------------------------------------------------------------ */

/* One entry of the order array; id -1 is a tombstone. */
typedef struct {
    int64_t leaf;
    int32_t id;
} Entry;

/* One slot of the index; id -1 is empty. */
typedef struct {
    int32_t id;
    int32_t pos; /* the entry's position in the order array */
} Slot;

/* Every stash: ids in [0, 2**31) to leaves >= 0, iterated in insertion
 * order.  An open-addressing index (linear probing, deletion by backward
 * shift, at most half full) maps an id to its position in the order array;
 * a deletion leaves a tombstone there, and the tombstones are compacted out
 * once they outnumber the live entries, the order of the rest kept.  Both
 * arrays grow with the residents and never shrink, so a steady state
 * allocates nothing. */
typedef struct {
    PyObject_HEAD
    Entry *entries;
    Py_ssize_t used; /* entries written, tombstones included */
    Py_ssize_t live;
    Py_ssize_t room; /* entries allocated */
    Slot *index;
    Py_ssize_t slots; /* a power of two */
    int shift; /* 64 - log2(slots): the hash keeps the product's top bits */
} Stash;

static PyTypeObject StashType;

#define STASH_MIN_SIZE 8
/* Positions are int32. */
#define STASH_MAX_ENTRIES ((Py_ssize_t)INT32_MAX)

/* Where `id`'s probe starts: the top bits of a Fibonacci hash. */
static inline Py_ssize_t
home(const Stash *s, int32_t id)
{
    return (Py_ssize_t)(((uint64_t)(uint32_t)id * 0x9E3779B97F4A7C15ULL) >> s->shift);
}

/* The index slot holding `id` (>= 0), or the empty slot its probe ends on. */
static Py_ssize_t
probe(const Stash *s, int32_t id)
{
    Py_ssize_t i = home(s, id);
    while (s->index[i].id != id && s->index[i].id >= 0) {
        i = (i + 1) & (s->slots - 1);
    }
    return i;
}

/* The position of `id`'s entry, or -1. */
static Py_ssize_t
find(const Stash *s, long long id)
{
    if (id < 0 || id > INT32_MAX) {
        return -1;
    }
    const Slot *slot = &s->index[probe(s, (int32_t)id)];
    return slot->id == id ? slot->pos : -1;
}

/* An index of `slots` slots over the live entries. */
static int
reindex(Stash *s, Py_ssize_t slots)
{
    Slot *index = PyMem_Malloc((size_t)slots * sizeof(Slot));
    if (index == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memset(index, 0xff, (size_t)slots * sizeof(Slot));
    PyMem_Free(s->index);
    s->index = index;
    s->slots = slots;
    s->shift = 64;
    while (slots > 1) {
        s->shift--;
        slots >>= 1;
    }
    for (Py_ssize_t pos = 0; pos < s->used; pos++) {
        int32_t id = s->entries[pos].id;
        if (id >= 0) {
            s->index[probe(s, id)] = (Slot){id, (int32_t)pos};
        }
    }
    return 0;
}

/* Room for `extra` more entries: in the order array, and in the index at
 * most half full.  The only step of an insertion that can fail. */
static int
make_room(Stash *s, Py_ssize_t extra)
{
    if (extra > STASH_MAX_ENTRIES - s->used) {
        PyErr_SetString(PyExc_MemoryError, "a stash holds at most 2**31 - 1 entries");
        return -1;
    }
    if (s->used + extra > s->room) {
        Py_ssize_t room = s->room < STASH_MIN_SIZE ? STASH_MIN_SIZE : s->room;
        while (room < s->used + extra) {
            room = room > STASH_MAX_ENTRIES / 2 ? STASH_MAX_ENTRIES : 2 * room;
        }
        Entry *entries = PyMem_Realloc(s->entries, (size_t)room * sizeof(Entry));
        if (entries == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        s->entries = entries;
        s->room = room;
    }
    if (2 * (s->live + extra) > s->slots) {
        Py_ssize_t slots = s->slots;
        while (2 * (s->live + extra) > slots) {
            slots *= 2;
        }
        return reindex(s, slots);
    }
    return 0;
}

/* `id` (>= 0) to `leaf`, after make_room: in place when present, else at
 * the end. */
static void
put(Stash *s, int32_t id, int64_t leaf)
{
    Slot *slot = &s->index[probe(s, id)];
    if (slot->id == id) {
        s->entries[slot->pos].leaf = leaf;
        return;
    }
    s->entries[s->used] = (Entry){leaf, id};
    *slot = (Slot){id, (int32_t)s->used};
    s->used++;
    s->live++;
}

/* Delete the entry at `pos`, leaving a tombstone: every other position
 * holds, so a write-back deletes what it places while its items point into
 * the order array. */
static void
delete_at(Stash *s, Py_ssize_t pos)
{
    Py_ssize_t hole = probe(s, s->entries[pos].id), mask = s->slots - 1;
    s->entries[pos].id = -1;
    s->live--;
    /* Backward shift: a later slot of the run moves into the hole unless
     * its home lies cyclically in (hole, next]. */
    for (Py_ssize_t next = (hole + 1) & mask; s->index[next].id >= 0; next = (next + 1) & mask) {
        Py_ssize_t start = home(s, s->index[next].id);
        int stays = hole < next ? (start > hole && start <= next)
                                : (start > hole || start <= next);
        if (!stays) {
            s->index[hole] = s->index[next];
            hole = next;
        }
    }
    s->index[hole].id = -1;
}

/* Compact the tombstones out once they outnumber the live entries. */
static void
settle(Stash *s)
{
    if (s->used - s->live <= s->live) {
        return;
    }
    Py_ssize_t to = 0;
    for (Py_ssize_t from = 0; from < s->used; from++) {
        Entry entry = s->entries[from];
        if (entry.id < 0) {
            continue;
        }
        if (to != from) {
            s->entries[to] = entry;
            s->index[probe(s, entry.id)].pos = (int32_t)to;
        }
        to++;
    }
    s->used = to;
}

/* One scratch buffer for every write-back, grown geometrically and never
 * shrunk: a steady-state call allocates nothing. */
static char *scratch = NULL;
static size_t scratch_size = 0;

static void *
reserve(size_t bytes)
{
    if (scratch == NULL || bytes > scratch_size) {
        size_t size = scratch_size ? scratch_size : 4096;
        while (size < bytes) {
            size *= 2;
        }
        char *grown = PyMem_Realloc(scratch, size);
        if (grown == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        scratch = grown;
        scratch_size = size;
    }
    return scratch;
}

static int
bit_length(unsigned long long value)
{
    return value ? 64 - __builtin_clzll(value) : 0;
}

/* An int argument in [lo, hi). */
static int
bounded(PyObject *obj, long long lo, long long hi, const char *what, long long *out)
{
    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be an int, not %.100s", what,
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    int overflow;
    long long value = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (value == -1 && PyErr_Occurred()) {
        return -1;
    }
    if (overflow || value < lo || value >= hi) {
        PyErr_Format(PyExc_ValueError, "%s %R outside [%lld, %lld)", what, obj, lo, hi);
        return -1;
    }
    *out = value;
    return 0;
}

/* depth + 1 ints in [0, hi). */
static int
per_level(PyObject *obj, int depth, long long hi, const char *what, long long *out)
{
    PyObject *seq = PySequence_Fast(obj, "");
    if (seq == NULL) {
        PyErr_Format(PyExc_TypeError, "%s must be a sequence, not %.100s", what,
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    int result = -1;
    Py_ssize_t length = PySequence_Fast_GET_SIZE(seq);
    if (length != depth + 1) {
        PyErr_Format(PyExc_ValueError, "%s has %zd entries, the tree has %d levels",
                     what, length, depth + 1);
        goto done;
    }
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (int level = 0; level <= depth; level++) {
        if (bounded(items[level], 0, hi, what, &out[level]) < 0) {
            goto done;
        }
    }
    result = 0;
done:
    Py_DECREF(seq);
    return result;
}

/* A contiguous buffer of `itemsize`-byte items of a `codes` type, writable
 * if `must_write`. */
static int
buffer_of(PyObject *obj, Py_buffer *view, Py_ssize_t itemsize, const char *codes,
          int must_write, const char *what)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0) {
        PyErr_Format(PyExc_TypeError, "%s must be a contiguous buffer, not %.100s", what,
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    const char *format = view->format ? view->format : "B";
    if (*format == '@' || *format == '=') {
        format++;
    }
    if (must_write && view->readonly) {
        PyErr_Format(PyExc_TypeError, "%s is read-only", what);
    }
    else if (view->itemsize != itemsize || strlen(format) != 1
             || strchr(codes, *format) == NULL) {
        PyErr_Format(PyExc_ValueError, "%s has items of %zd bytes (format %s), need %zd",
                     what, view->itemsize, view->format ? view->format : "B", itemsize);
    }
    else {
        return 0;
    }
    PyBuffer_Release(view);
    return -1;
}

/* The operands every call shares: args[0], args[1..5]. */
static int
parse_tree(PyObject *const *args, Tree *tree, Py_buffer *slots, Py_buffer *occ)
{
    if (Py_TYPE(args[0]) != &StashType) {
        PyErr_Format(PyExc_TypeError, "stash must be a Stash, not %.100s",
                     Py_TYPE(args[0])->tp_name);
        return -1;
    }
    long long depth;
    if (bounded(args[5], 0, MAX_DEPTH + 1, "depth", &depth) < 0
        || per_level(args[1], (int)depth, MAX_CAPACITY + 1, "caps", tree->caps) < 0
        || per_level(args[2], (int)depth, PY_SSIZE_T_MAX, "level_base", tree->level_base) < 0) {
        return -1;
    }
    tree->depth = (int)depth;
    for (int level = 0; level <= depth; level++) {
        tree->node_base[level] = (1LL << level) - 1;
    }
    if (buffer_of(args[3], slots, 4, "il", 1, "slots") < 0) {
        return -1;
    }
    if (buffer_of(args[4], occ, 1, "B", 1, "occ") < 0) {
        PyBuffer_Release(slots);
        return -1;
    }
    tree->slots = slots->buf;
    tree->occ = occ->buf;
    tree->num_slots = slots->len / 4;
    tree->num_buckets = occ->len;
    return 0;
}

/* Every bucket on the path to `leaf`, and every slot of it, is in the
 * buffers.  Buckets and slots at a level grow with the node, so checking
 * the path to the largest leaf covers every smaller one. */
static int
check_path(const Tree *tree, long long leaf)
{
    for (int level = 0; level <= tree->depth; level++) {
        long long node = leaf >> (tree->depth - level);
        long long cap = tree->caps[level];
        long long base = tree->level_base[level];
        if (node >= tree->num_buckets - tree->node_base[level]
            || (cap && (base > tree->num_slots
                        || node + 1 > (tree->num_slots - base) / cap))) {
            PyErr_Format(PyExc_ValueError,
                         "the path to leaf %lld leaves the buffers at level %d "
                         "(%zd slots, %zd buckets)",
                         leaf, level, tree->num_slots, tree->num_buckets);
            return -1;
        }
    }
    return 0;
}

/* Pop `take` items off the pool's end into the bucket's free slots, in
 * ascending slot order, and delete them from the stash. */
static void
place(Stash *stash, const Tree *tree, int level, long long node, const Item *pool,
      Py_ssize_t *top, long long take)
{
    long long cap = tree->caps[level];
    long long bucket = tree->node_base[level] + node;
    long long used = tree->occ[bucket];
    int32_t *slot = tree->slots + tree->level_base[level] + node * cap + used;
    for (long long offset = 0; offset < take; offset++) {
        int32_t pos = pool[--*top].pos;
        slot[offset] = stash->entries[pos].id;
        delete_at(stash, pos);
    }
    tree->occ[bucket] = (uint8_t)(used + take);
}

/* A resident's leaf outside the tree: inserted for another tree. */
static int
foreign_leaf(const Stash *stash, Py_ssize_t pos, int depth)
{
    PyErr_Format(PyExc_ValueError, "stash leaf %lld of id %d outside [0, 2**%d)",
                 (long long)stash->entries[pos].leaf, (int)stash->entries[pos].id, depth);
    return -1;
}

/* The greedy write-back onto the path to `leaf`, a path check_path passed:
 * every entry joins the pool at the deepest level its leaf shares with the
 * path, in stash order; from the leaf level up, each bucket takes its free
 * slots' worth off the pool's end, behind its occupants, and the rest
 * rises. */
static int
write_back_path(Stash *stash, Tree *tree, long long leaf)
{
    int depth = tree->depth;
    Py_ssize_t n = stash->live;
    if (n == 0) {
        return 0;
    }
    /* In stash order, then grouped by bit length (a counting sort), then
     * the pool: three arrays of n items. */
    Item *items = reserve(3 * (size_t)n * sizeof(Item));
    if (items == NULL) {
        return -1;
    }
    Item *grouped = items + n;
    Item *pool = grouped + n;
    Py_ssize_t start[MAX_DEPTH + 2] = {0};
    const Entry *entries = stash->entries;
    for (Py_ssize_t pos = 0, i = 0; i < n; pos++) {
        if (entries[pos].id < 0) {
            continue;
        }
        int bits = bit_length((unsigned long long)(entries[pos].leaf ^ leaf));
        if (bits > depth) {
            return foreign_leaf(stash, pos, depth);
        }
        items[i++] = (Item){(int32_t)pos, bits};
        start[bits + 1]++;
    }
    for (int bits = 1; bits <= depth + 1; bits++) {
        start[bits] += start[bits - 1];
    }
    Py_ssize_t fill[MAX_DEPTH + 1];
    memcpy(fill, start, sizeof(fill));
    for (Py_ssize_t i = 0; i < n; i++) {
        grouped[fill[items[i].bits]++] = items[i];
    }
    Py_ssize_t top = 0;
    for (int level = depth; level >= 0; level--) {
        int bits = depth - level;
        Py_ssize_t joining = start[bits + 1] - start[bits];
        memcpy(pool + top, grouped + start[bits], (size_t)joining * sizeof(Item));
        top += joining;
        if (top == 0) {
            continue;
        }
        long long node = leaf >> bits;
        long long take = tree->caps[level] - tree->occ[tree->node_base[level] + node];
        if (take > top) {
            take = top;
        }
        if (take > 0) {
            place(stash, tree, level, node, pool, &top, take);
        }
    }
    settle(stash);
    return 0;
}

static int
held_order(const void *a, const void *b)
{
    const HeldItem *x = a, *y = b;
    if (x->item.bits != y->item.bits) {
        return x->item.bits < y->item.bits ? -1 : 1;
    }
    if (x->node != y->node) {
        return x->node < y->node ? -1 : 1;
    }
    return x->item.pos < y->item.pos ? -1 : (x->item.pos > y->item.pos);
}

static int
ascending(const void *a, const void *b)
{
    long long x = *(const long long *)a, y = *(const long long *)b;
    return x < y ? -1 : (x > y);
}

/* The subtree write-back of the paths to the leaves `held` lists: each
 * entry joins at the node of its leaf's path at the longest prefix it
 * shares with a held leaf; from the leaf level up, each node with
 * candidates, in ascending order, pools what its children left (left child
 * first), then its own entries in stash order, fills its free slots off the
 * pool's end and passes the rest up.  What the root leaves stays. */
static int
write_back_held(Stash *stash, Tree *tree, PyObject *held)
{
    int depth = tree->depth;
    PyObject *leaves = PySequence_Fast(held, "leaves must be a sequence");
    if (leaves == NULL) {
        return -1;
    }
    Py_ssize_t num_paths = PySequence_Fast_GET_SIZE(leaves);
    Py_ssize_t n = stash->live;
    /* The held leaves, then the entries, two pools and two carried lists. */
    size_t paths_bytes = ((size_t)num_paths * sizeof(long long) + 15) & ~(size_t)15;
    char *base = reserve(paths_bytes + (size_t)n * (sizeof(HeldItem) + 2 * sizeof(Item)
                                                   + 2 * sizeof(Carried)));
    if (base == NULL) {
        goto fail;
    }
    long long *paths = (long long *)base;
    HeldItem *entries = (HeldItem *)(base + paths_bytes);
    Item *pools[2] = {(Item *)(entries + n), (Item *)(entries + n) + n};
    Carried *carried[2] = {(Carried *)(pools[1] + n), (Carried *)(pools[1] + n) + n};
    PyObject **items = PySequence_Fast_ITEMS(leaves);
    for (Py_ssize_t i = 0; i < num_paths; i++) {
        if (bounded(items[i], 0, 1LL << depth, "held leaf", &paths[i]) < 0) {
            goto fail;
        }
    }
    if (num_paths == 0) {
        Py_DECREF(leaves);
        return 0;
    }
    qsort(paths, (size_t)num_paths, sizeof(long long), ascending);
    Py_ssize_t last = 0;
    for (Py_ssize_t i = 1; i < num_paths; i++) {
        if (paths[i] != paths[last]) {
            paths[++last] = paths[i];
        }
    }
    if (check_path(tree, paths[last]) < 0) {
        goto fail;
    }
    for (Py_ssize_t pos = 0, i = 0; i < n; pos++) {
        if (stash->entries[pos].id < 0) {
            continue;
        }
        long long leaf = stash->entries[pos].leaf;
        if (leaf >> depth) {
            foreign_leaf(stash, pos, depth);
            goto fail;
        }
        /* bisect_left: the first held leaf >= leaf, and the one before it. */
        Py_ssize_t lo = 0, hi = last + 1;
        while (lo < hi) {
            Py_ssize_t mid = (lo + hi) / 2;
            if (paths[mid] < leaf) {
                lo = mid + 1;
            }
            else {
                hi = mid;
            }
        }
        int bits = bit_length((unsigned long long)(leaf ^ paths[lo <= last ? lo : last]));
        if (lo) {
            int below = bit_length((unsigned long long)(leaf ^ paths[lo - 1]));
            if (below < bits) {
                bits = below;
            }
        }
        entries[i++] = (HeldItem){{(int32_t)pos, bits}, leaf >> bits};
    }
    /* Deepest level first, nodes ascending, stash order within a node. */
    qsort(entries, (size_t)n, sizeof(HeldItem), held_order);
    Py_ssize_t next = 0, rising = 0;
    int side = 0;
    for (int level = depth; level >= 0; level--) {
        int bits = depth - level;
        Py_ssize_t end = next;
        while (end < n && entries[end].item.bits == bits) {
            end++;
        }
        if (end == next && rising == 0) {
            continue;
        }
        /* Last level's leftovers are in pools[side], listed in
         * carried[side]; this level's go to the other side. */
        Item *from = pools[side], *pool = pools[!side];
        Carried *below = carried[side], *up = carried[!side];
        Py_ssize_t num_below = rising, c = 0, top = 0;
        rising = 0;
        while (c < num_below || next < end) {
            long long node;
            if (c < num_below && (next == end || below[c].node <= entries[next].node)) {
                node = below[c].node;
            }
            else {
                node = entries[next].node;
            }
            Py_ssize_t first = top;
            if (c < num_below && below[c].node == node) {
                memcpy(pool + top, from + below[c].start, (size_t)below[c].len * sizeof(Item));
                top += below[c].len;
                c++;
            }
            while (next < end && entries[next].node == node) {
                pool[top++] = entries[next++].item;
            }
            long long take = tree->caps[level] - tree->occ[tree->node_base[level] + node];
            if (take > top - first) {
                take = top - first;
            }
            if (take > 0) {
                place(stash, tree, level, node, pool, &top, take);
            }
            if (top > first && level) {
                /* Siblings come one after the other, so a right child's
                 * leftovers land right behind its left sibling's. */
                if (rising && up[rising - 1].node == node >> 1) {
                    up[rising - 1].len += top - first;
                }
                else {
                    up[rising++] = (Carried){node >> 1, first, top - first};
                }
            }
        }
        side = !side;
    }
    settle(stash);
    Py_DECREF(leaves);
    return 0;
fail:
    Py_DECREF(leaves);
    return -1;
}

/* Read the path to `leaf`, a path check_path passed, into the stash: each
 * id under its label, which must be a leaf of the tree. */
static int
fetch_path(Stash *stash, Tree *tree, const int32_t *labels, Py_ssize_t num_labels,
           long long leaf)
{
    int depth = tree->depth;
    /* Every occupancy, id and label is checked, and the stash's room made,
     * before the first write. */
    long long used[MAX_DEPTH + 1];
    Py_ssize_t arriving = 0;
    for (int level = 0; level <= depth; level++) {
        long long node = leaf >> (depth - level);
        long long bucket = tree->node_base[level] + node;
        long long first = tree->level_base[level] + node * tree->caps[level];
        used[level] = tree->occ[bucket];
        if (used[level] > tree->caps[level]) {
            PyErr_Format(PyExc_ValueError, "bucket %lld holds %lld blocks, its capacity is %lld",
                         bucket, used[level], tree->caps[level]);
            return -1;
        }
        for (long long slot = first; slot < first + used[level]; slot++) {
            int32_t id = tree->slots[slot];
            if (id < 0 || id >= num_labels) {
                PyErr_Format(PyExc_ValueError, "slot %lld holds id %d, outside the %zd labels",
                             slot, (int)id, num_labels);
                return -1;
            }
            if (labels[id] < 0 || (long long)labels[id] >> depth) {
                PyErr_Format(PyExc_ValueError, "id %d is labelled %d, outside [0, 2**%d)",
                             (int)id, (int)labels[id], depth);
                return -1;
            }
        }
        arriving += (Py_ssize_t)used[level];
    }
    if (make_room(stash, arriving) < 0) {
        return -1;
    }
    for (int level = 0; level <= depth; level++) {
        if (used[level] == 0) {
            continue;
        }
        long long node = leaf >> (depth - level);
        int32_t *slot = tree->slots + tree->level_base[level] + node * tree->caps[level];
        for (long long offset = 0; offset < used[level]; offset++) {
            put(stash, slot[offset], labels[slot[offset]]);
            slot[offset] = -1;
        }
        tree->occ[tree->node_base[level] + node] = 0;
    }
    return 0;
}

/* An error of repro's own hierarchy (repro.exceptions.<name>). */
static void
raise_repro(const char *name, const char *format, ...)
{
    PyObject *module = PyImport_ImportModule("repro.exceptions");
    PyObject *type = module ? PyObject_GetAttrString(module, name) : NULL;
    Py_XDECREF(module);
    if (type == NULL) {
        return;
    }
    va_list vargs;
    va_start(vargs, format);
    PyErr_FormatV(type, format, vargs);
    va_end(vargs);
    Py_DECREF(type);
}

/* A stream of uniform leaves: a prefetched int64 block, the position of its
 * next leaf, and the generator's `integers` that refills it. */
typedef struct {
    PyObject *integers;
    int64_t *buf;
    Py_ssize_t len;
    int64_t *pos;
    long long num_leaves;
} Stream;

/* The stream's next leaf: the prefetched block first, refilled with one
 * `integers(0, num_leaves, size=len)` call when it runs out. */
static int
draw(Stream *s, long long *leaf)
{
    if (*s->pos == s->len) {
        PyObject *args = Py_BuildValue("(iL)", 0, s->num_leaves);
        PyObject *kwargs = Py_BuildValue("{s:n}", "size", s->len);
        PyObject *block = args && kwargs ? PyObject_Call(s->integers, args, kwargs) : NULL;
        Py_XDECREF(args);
        Py_XDECREF(kwargs);
        if (block == NULL) {
            return -1;
        }
        Py_buffer view;
        int failed = buffer_of(block, &view, 8, INT64_CODES, 0, "the drawn leaves");
        if (!failed) {
            if (view.len / 8 != s->len) {
                PyErr_Format(PyExc_ValueError, "integers drew %zd leaves, asked for %zd",
                             view.len / 8, s->len);
                failed = 1;
            }
            else {
                memcpy(s->buf, view.buf, (size_t)view.len);
            }
            PyBuffer_Release(&view);
        }
        Py_DECREF(block);
        if (failed) {
            return -1;
        }
        *s->pos = 0;
    }
    long long value = s->buf[*s->pos];
    if (value < 0 || value >= s->num_leaves) {
        PyErr_Format(PyExc_ValueError, "drawn leaf %lld outside [0, %lld)", value,
                     s->num_leaves);
        return -1;
    }
    (*s->pos)++;
    *leaf = value;
    return 0;
}

/* A leaf stream's operands: its `integers`, its writable int64 block and
 * the position in [0, len] its caller keeps. */
static int
parse_stream(PyObject *integers, PyObject *block, Py_buffer *view, int64_t *pos,
             long long num_leaves, Stream *s)
{
    if (!PyCallable_Check(integers)) {
        PyErr_SetString(PyExc_TypeError, "integers must be callable");
        return -1;
    }
    if (buffer_of(block, view, 8, INT64_CODES, 1, "the leaf block") < 0) {
        return -1;
    }
    *s = (Stream){integers, view->buf, view->len / 8, pos, num_leaves};
    if (s->len < 1 || *pos < 0 || *pos > s->len) {
        PyErr_SetString(PyExc_ValueError,
                        "a leaf block must be non-empty, its position inside it");
        return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* walk: one access to a recursive position map                        */
/* ------------------------------------------------------------------ */

/* Levels of a map over at most 2**31 blocks, two labels or more a block. */
#define MAX_LEVELS 31
/* Per level, in the walk's int64 state: the position in its leaf block,
 * then the path reads and write-backs not charged yet. */
enum { LEVEL_DRAWN, LEVEL_READS, LEVEL_WRITES, LEVEL_FIELDS };

/* One recursion level: a tree of label blocks, its stash, its blocks'
 * labels (a block read off a path enters the stash under its label), its
 * parent, the array its blocks are looked up in (the packed labels of the
 * level above, or the top map), and the stream of its fresh labels. */
typedef struct {
    Stash *stash;
    Tree tree;
    Py_buffer views[5]; /* slots, occ, labels, parent, leaf block */
    int32_t *labels, *parent;
    Py_ssize_t num_labels, num_parent;
    Stream stream;
    PyObject *read_stream; /* NULL: the leaves read are not recorded */
    int64_t *state;
} Level;

typedef struct {
    Py_buffer entries_view, state;
    int32_t *entries; /* the logical labels, level 1's payload */
    Py_ssize_t num_entries;
    long long chi;
    Py_ssize_t count, parsed;
    Level *levels; /* level 1 first: the caller's array of MAX_LEVELS */
} Walk;

static void
release_walk(Walk *w)
{
    for (Py_ssize_t i = 0; i < w->parsed; i++) {
        for (int v = 0; v < 5; v++) {
            PyBuffer_Release(&w->levels[i].views[v]);
        }
    }
    PyBuffer_Release(&w->entries_view);
    PyBuffer_Release(&w->state);
}

/* (stash, caps, level_base, slots, occ, depth, labels, parent, integers,
 *  leaf_block, read_stream); counted as parsed before its first buffer is
 * taken, so release_walk releases what it took. */
static int
parse_level(PyObject *obj, Walk *w, Level *level, int64_t *state)
{
    if (!PyTuple_CheckExact(obj) || PyTuple_GET_SIZE(obj) != 11) {
        PyErr_SetString(PyExc_TypeError, "a recursion level must be a tuple of 11 operands");
        return -1;
    }
    PyObject **args = PySequence_Fast_ITEMS(obj);
    Py_buffer *views = level->views;
    memset(views, 0, sizeof(level->views));
    w->parsed++;
    if (parse_tree(args, &level->tree, &views[0], &views[1]) < 0
        || buffer_of(args[6], &views[2], 4, "il", 1, "labels") < 0
        || buffer_of(args[7], &views[3], 4, "il", 1, "parent") < 0) {
        return -1;
    }
    int depth = level->tree.depth;
    level->stash = (Stash *)args[0];
    level->labels = views[2].buf;
    level->num_labels = views[2].len / 4;
    level->parent = views[3].buf;
    level->num_parent = views[3].len / 4;
    level->state = state;
    if (parse_stream(args[8], args[9], &views[4], &state[LEVEL_DRAWN], 1LL << depth,
                     &level->stream) < 0
        || check_path(&level->tree, (1LL << depth) - 1) < 0) {
        return -1;
    }
    if (args[10] != Py_None && !PyList_CheckExact(args[10])) {
        PyErr_SetString(PyExc_TypeError, "read_stream must be a list or None");
        return -1;
    }
    level->read_stream = args[10] == Py_None ? NULL : args[10];
    return 0;
}

/* (entries, chi, state, levels), level 1 first, no level for a dense map,
 * parsed into the caller's `levels` (MAX_LEVELS of them, on its stack, so a
 * walk allocates nothing); on a raise the caller still calls release_walk. */
static int
parse_walk(PyObject *obj, Walk *w, Level *levels)
{
    memset(w, 0, sizeof(*w));
    w->levels = levels;
    if (!PyTuple_CheckExact(obj) || PyTuple_GET_SIZE(obj) != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "the walk must be a tuple (entries, chi, state, levels)");
        return -1;
    }
    PyObject **args = PySequence_Fast_ITEMS(obj);
    if (!PyTuple_CheckExact(args[3]) || PyTuple_GET_SIZE(args[3]) > MAX_LEVELS) {
        PyErr_Format(PyExc_TypeError, "levels must be a tuple of at most %d levels",
                     MAX_LEVELS);
        return -1;
    }
    w->count = PyTuple_GET_SIZE(args[3]);
    if (buffer_of(args[0], &w->entries_view, 4, "il", 1, "entries") < 0
        || bounded(args[1], 2, LLONG_MAX, "chi", &w->chi) < 0
        || buffer_of(args[2], &w->state, 8, INT64_CODES, 1, "the walk's state") < 0) {
        return -1;
    }
    w->entries = w->entries_view.buf;
    w->num_entries = w->entries_view.len / 4;
    if (w->state.len / 8 != LEVEL_FIELDS * w->count) {
        PyErr_Format(PyExc_ValueError, "the walk's state has %zd fields, need %zd",
                     w->state.len / 8, LEVEL_FIELDS * w->count);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(args[3]);
    for (Py_ssize_t i = 0; i < w->count; i++) {
        if (parse_level(items[i], w, &levels[i],
                        (int64_t *)w->state.buf + LEVEL_FIELDS * i) < 0) {
            return -1;
        }
    }
    return 0;
}

/* Level k's step of a walk (Stefanov et al., CCS'13, Sec. 4): its block
 * `block` takes a fresh label in its parent, is read with its path under
 * the label `read` it had unless it is stashed (`hit`), takes the fresh
 * label in the stash and in `labels`, and a path read is written back. */
static int
walk_step(Level *level, Py_ssize_t k, long long block, int hit, long long read)
{
    long long fresh;
    if (draw(&level->stream, &fresh) < 0) {
        return -1;
    }
    level->parent[block] = (int32_t)fresh;
    if (!hit) {
        if (fetch_path(level->stash, &level->tree, level->labels, level->num_labels, read)
            < 0) {
            return -1;
        }
        level->state[LEVEL_READS]++;
        if (level->read_stream != NULL) {
            PyObject *value = PyLong_FromLongLong(read);
            int failed = value == NULL || PyList_Append(level->read_stream, value) < 0;
            Py_XDECREF(value);
            if (failed) {
                return -1;
            }
        }
    }
    Py_ssize_t pos = find(level->stash, block);
    if (pos < 0) {
        raise_repro("IntegrityError",
                    "recursion level %zd block %lld missing from both stash and path %lld", k,
                    block, read);
        return -1;
    }
    level->stash->entries[pos].leaf = fresh;
    level->labels[block] = (int32_t)fresh;
    if (!hit) {
        if (write_back_path(level->stash, &level->tree, read) < 0) {
            return -1;
        }
        level->state[LEVEL_WRITES]++;
    }
    return 0;
}

/* The map's update: `leaf` in for `block_id`, the leaf it replaces out,
 * which must lie in [0, leaves).  The levels' steps come first, from the
 * top level down; every block, every leaf a step reads and the leaf out
 * are checked before the first write. */
static int
update_map(Walk *w, long long block_id, long long leaf, long long leaves, long long *old)
{
    /* Per level k (k = 0: the id): the block holding block_id's label,
     * whether it is stashed, and the label its path is read under. */
    long long block[MAX_LEVELS + 1], read[MAX_LEVELS + 1];
    int hit[MAX_LEVELS + 1];
    block[0] = block_id;
    *old = w->entries[block_id];
    if (*old < 0 || *old >= leaves) {
        PyErr_Format(PyExc_ValueError, "block %lld sat on leaf %lld, outside [0, %lld)",
                     block_id, *old, leaves);
        return -1;
    }
    for (Py_ssize_t k = 1; k <= w->count; k++) {
        Level *level = &w->levels[k - 1];
        block[k] = block[k - 1] / w->chi;
        if (block[k] >= level->num_labels || block[k] >= level->num_parent
            || block[k] > INT32_MAX) {
            PyErr_Format(PyExc_ValueError, "block %lld is past recursion level %zd",
                         block_id, k);
            return -1;
        }
        hit[k] = find(level->stash, block[k]) >= 0;
        read[k] = level->parent[block[k]];
        if (!hit[k] && (read[k] < 0 || read[k] >= level->stream.num_leaves)) {
            PyErr_Format(PyExc_ValueError, "recursion level %zd leaf %lld outside [0, %lld)",
                         k, read[k], level->stream.num_leaves);
            return -1;
        }
    }
    for (Py_ssize_t k = w->count; k >= 1; k--) {
        if (walk_step(&w->levels[k - 1], k, block[k], hit[k], read[k]) < 0) {
            return -1;
        }
    }
    w->entries[block_id] = (int32_t)leaf;
    return 0;
}

PyDoc_STRVAR(walk_doc,
"walk(walk, block_id, leaf)\n"
"--\n\n"
"One access to a position map: ``leaf`` in as ``block_id``'s label, the\n"
"label it replaces out.  ``walk`` is ``(entries, chi, state, levels)``: the\n"
"int32 logical labels, swapped last, the labels a block packs, an int64\n"
"``state`` of three fields a level (the position in its leaf block, its\n"
"path reads and write-backs) and the recursion levels (none: a dense map),\n"
"level 1 first, each ``(stash, caps, level_base, slots, occ, depth,\n"
"labels, parent, integers, leaf_block, read_stream)``, walked from the top\n"
"level down.");

static PyObject *
walk(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "walk takes 3 arguments, got %zd", nargs);
        return NULL;
    }
    Walk w;
    Level levels[MAX_LEVELS];
    long long block_id, leaf, old;
    int failed = parse_walk(args[0], &w, levels) < 0
                 || bounded(args[1], 0, w.num_entries, "block_id", &block_id) < 0
                 || bounded(args[2], 0, (long long)INT32_MAX + 1, "leaf", &leaf) < 0
                 || update_map(&w, block_id, leaf, (long long)INT32_MAX + 1, &old) < 0;
    release_walk(&w);
    return failed ? NULL : PyLong_FromLongLong(old);
}

/* ------------------------------------------------------------------ */
/* serve: one request                                                  */
/* ------------------------------------------------------------------ */

/* The caller-owned int64 state buffer: where the request starts, what it
 * has drawn, and its counts so far; the kernel keeps it current, so a
 * raise leaves in it what was done before the raise. */
enum {
    CURSOR,
    LEAF_POS,
    STASH_PEAK,
    LOGICAL,
    PATH_READS,
    PATH_WRITES,
    DUMMY_READS,
    EPISODES,
    HITS,
    STATE_FIELDS
};

/* Whether a serve call is running on this thread: its callbacks may not
 * start another.  Per thread: another thread may serve its own engine
 * while a callback here runs Python code. */
static _Thread_local int serving = 0;

typedef struct {
    Stash *stash;
    Tree tree;
    Walk map; /* the logical labels, and a recursive map's levels */
    PyObject *lookup; /* the plan's consume_next_leaf; NULL: no plan */
    Stream leaves;
    long long num_blocks, num_leaves, capacity;
    long long evict, trigger, drain, max_dummies;
    PyObject *held;
    int holding;
    PyObject *observer; /* NULL: no observer */
    PyObject *history; /* NULL: no history */
    int64_t *state;
} Request;

/* One bin's distinct ids, in first-occurrence order, and what the bin
 * decides for each; sized for the request's largest bin, on the stack up
 * to WORK_ON_STACK ids. */
#define WORK_ON_STACK 64
typedef struct {
    long long *ids;
    long long *leaves;
    long long *read;
    char *hit;
} Work;

/* The observer's method name and keyword, made once at module init. */
static PyObject *observe_name = NULL, *observe_kwnames = NULL;

/* observer.observe_path(leaf, dummy=dummy) */
static int
observe(Request *r, long long leaf, int dummy)
{
    if (r->observer == NULL) {
        return 0;
    }
    PyObject *value = PyLong_FromLongLong(leaf);
    if (value == NULL) {
        return -1;
    }
    PyObject *args[3] = {r->observer, value, dummy ? Py_True : Py_False};
    PyObject *result = PyObject_VectorcallMethod(observe_name, args, 2, observe_kwnames);
    Py_DECREF(value);
    if (result == NULL) {
        return -1;
    }
    Py_DECREF(result);
    return 0;
}

/* Overflow is Path ORAM's stated failure event: the insertion has landed,
 * then the raise. */
static int
check_capacity(Request *r)
{
    if (r->capacity >= 0 && r->stash->live > r->capacity) {
        raise_repro("StashOverflowError", "stash exceeded its capacity of %lld blocks",
                    r->capacity);
        return -1;
    }
    return 0;
}

/* After a bin: the occupancy-triggered eviction loop, then the stash
 * observation.  An empty bin (`dummy`) runs the loop's body once, counting
 * no episode and observing no stash. */
static int
after_bin(Request *r, int dummy)
{
    Py_ssize_t occupancy = r->stash->live;
    if (dummy || (r->evict && occupancy > r->trigger)) {
        if (!dummy) {
            r->state[EPISODES]++;
        }
        long long dummies = 0;
        while (dummy ? dummies == 0
                     : r->evict && dummies < r->max_dummies && occupancy > r->drain) {
            long long leaf;
            if (draw(&r->leaves, &leaf) < 0
                || fetch_path(r->stash, &r->tree, r->map.entries, r->map.num_entries, leaf) < 0) {
                return -1;
            }
            r->state[DUMMY_READS]++;
            if (observe(r, leaf, 1) < 0 || check_capacity(r) < 0
                || write_back_path(r->stash, &r->tree, leaf) < 0) {
                return -1;
            }
            r->state[PATH_WRITES]++;
            dummies++;
            occupancy = r->stash->live;
        }
        if (dummy) {
            return 0;
        }
    }
    if (occupancy > r->state[STASH_PEAK]) {
        r->state[STASH_PEAK] = occupancy;
    }
    if (r->history != NULL) {
        PyObject *value = PyLong_FromSsize_t(occupancy);
        int failed = value == NULL || PyList_Append(r->history, value) < 0;
        Py_XDECREF(value);
        if (failed) {
            return -1;
        }
    }
    return 0;
}

/* One bin of `count` ids at trace index `start`.  `remaps` points at the
 * bin's first packed remap when the bin goes by position, else NULL. */
static int
serve_bin(Request *r, Work *w, const int64_t *ids, Py_ssize_t count, long long start,
          const int64_t **remaps, const int64_t *remaps_end)
{
    Py_ssize_t k = 0;
    for (Py_ssize_t i = 0; i < count; i++) {
        Py_ssize_t p = 0;
        while (p < k && w->ids[p] != ids[i]) {
            p++;
        }
        if (p == k) {
            w->ids[k++] = ids[i];
        }
    }
    for (Py_ssize_t p = 0; p < k; p++) {
        if (w->ids[p] < 0 || w->ids[p] >= r->num_blocks) {
            raise_repro("BlockNotFoundError", "block %lld outside [0, %lld)", w->ids[p],
                        r->num_blocks);
            return -1;
        }
    }
    r->state[LOGICAL] += count;
    long long end_index = start + count - 1;

    /* Every distinct block's new leaf, in the bin's order: by position,
     * else the plan's next occurrence, else the stream's next leaf. */
    Py_ssize_t hits = 0;
    for (Py_ssize_t p = 0; p < k; p++) {
        long long leaf = -1;
        int planned = 0;
        if (remaps != NULL) {
            if (*remaps == remaps_end) {
                PyErr_Format(PyExc_ValueError, "the plan's remaps end before bin %lld ends",
                             end_index);
                return -1;
            }
            leaf = *(*remaps)++;
            planned = leaf >= 0;
        }
        else if (r->lookup != NULL) {
            PyObject *args[2] = {PyLong_FromLongLong(w->ids[p]), PyLong_FromLongLong(end_index)};
            PyObject *found = args[0] && args[1] ? PyObject_Vectorcall(r->lookup, args, 2, NULL)
                                                 : NULL;
            Py_XDECREF(args[0]);
            Py_XDECREF(args[1]);
            if (found == NULL) {
                return -1;
            }
            if (found != Py_None) {
                int overflow = 0;
                PyObject *index = PyNumber_Index(found);
                if (index != NULL) {
                    leaf = PyLong_AsLongLongAndOverflow(index, &overflow);
                    Py_DECREF(index);
                }
                if (index == NULL || overflow) {
                    if (overflow) {
                        raise_repro("ConfigurationError", "planned leaf %R outside [0, %lld)",
                                    found, r->num_leaves);
                    }
                    Py_DECREF(found);
                    return -1;
                }
                planned = 1;
            }
            Py_DECREF(found);
        }
        if (!planned) {
            if (draw(&r->leaves, &leaf) < 0) {
                return -1;
            }
        }
        else if (leaf < 0 || leaf >= r->num_leaves) {
            raise_repro("ConfigurationError", "planned leaf %lld outside [0, %lld)", leaf,
                        r->num_leaves);
            return -1;
        }
        w->leaves[p] = leaf;
        w->hit[p] = find(r->stash, w->ids[p]) >= 0;
        hits += w->hit[p];
    }
    r->state[HITS] += hits;

    /* Path ORAM's order per missing block: its update returns the path it
     * sits on, fetched unless an earlier block of the bin read it already;
     * then the stash hits' updates.  Each block then takes its new leaf in
     * the stash, where it must be (a callback may have changed the stash
     * since the split). */
    Py_ssize_t num_read = 0;
    for (int pass = 0; pass < 2; pass++) {
        for (Py_ssize_t p = 0; p < k; p++) {
            if (w->hit[p] != pass) {
                continue;
            }
            long long old;
            if (update_map(&r->map, w->ids[p], w->leaves[p], r->num_leaves, &old) < 0) {
                return -1;
            }
            if (!pass) {
                Py_ssize_t j = 0;
                while (j < num_read && w->read[j] != old) {
                    j++;
                }
                if (j == num_read) {
                    w->read[num_read++] = old;
                    if (fetch_path(r->stash, &r->tree, r->map.entries, r->map.num_entries, old) < 0) {
                        return -1;
                    }
                    r->state[PATH_READS]++;
                    if (observe(r, old, 0) < 0 || check_capacity(r) < 0) {
                        return -1;
                    }
                }
            }
            Py_ssize_t pos = find(r->stash, w->ids[p]);
            if (pos < 0) {
                raise_repro("BlockNotFoundError", "block %lld missing from both stash and its path",
                            w->ids[p]);
                return -1;
            }
            r->stash->entries[pos].leaf = w->leaves[p];
        }
    }

    if (r->holding) {
        /* The bin's paths, and with them its blocks, stay in the stash for
         * the commit bin to write back. */
        for (Py_ssize_t j = 0; j < num_read; j++) {
            PyObject *value = PyLong_FromLongLong(w->read[j]);
            int failed = value == NULL || PyList_Append(r->held, value) < 0;
            Py_XDECREF(value);
            if (failed) {
                return -1;
            }
        }
        r->state[CURSOR] = end_index + 1;
        return 0;
    }
    /* Path by path: the first was emptied by its fetch; a later one finds
     * the buckets it shares with an earlier one refilled. */
    for (Py_ssize_t j = 0; j < num_read; j++) {
        if (write_back_path(r->stash, &r->tree, w->read[j]) < 0) {
            return -1;
        }
        r->state[PATH_WRITES]++;
    }
    r->state[CURSOR] = end_index + 1;
    return after_bin(r, 0);
}

/* The commit bin: the hold's paths back in read order as one subtree, then
 * the after-bin step of any bin. */
static int
serve_commit(Request *r)
{
    if (write_back_held(r->stash, &r->tree, r->held) < 0) {
        return -1;
    }
    r->state[PATH_WRITES] += PyList_GET_SIZE(r->held);
    if (PyList_SetSlice(r->held, 0, PyList_GET_SIZE(r->held), NULL) < 0) {
        return -1;
    }
    return after_bin(r, 0);
}

PyDoc_STRVAR(serve_doc,
"serve(stash, caps, level_base, slots, occ, depth, update, ids, size,\n"
"      remaps, by_position, lookup, integers, leaf_buf, limits, held_paths,\n"
"      holding, observer, history, state)\n"
"--\n\n"
"Serve one request: the bins of ``ids``, the commit bin, or a dummy read.\n\n"
"``ids`` (int64) is cut into bins that end on multiples of ``size``,\n"
"from the trace index ``state[0]``; an empty ``ids`` is one empty bin (a\n"
"dummy read) and ``None`` the commit bin of a held step.  Per bin, in\n"
"order: each distinct id's new leaf (the first ``by_position`` bins take\n"
"theirs from the packed int64 ``remaps``, a negative one meaning a\n"
"draw; other bins ask ``lookup(id, end_index)`` when it is not None;\n"
"otherwise, or when that returns None, the stream's next leaf from\n"
"``leaf_buf``, refilled by ``integers(0, num_leaves, size=len(leaf_buf))``);\n"
"the split into stash hits and missing blocks; each missing block's map\n"
"update, its path fetched unless the bin read it already; the hits'\n"
"updates; the write-backs, path by path, or, while ``holding``, the paths\n"
"appended to ``held_paths``; the occupancy-triggered eviction; the stash\n"
"peak and ``history``.  ``update`` is the map's walk (see ``walk``); a\n"
"fetched id enters the stash under its entry.\n"
"``limits`` is ``(num_blocks, num_leaves, capacity (-1: none), evict,\n"
"trigger, drain, max_dummies)``.  ``state`` (int64) holds the cursor, the\n"
"leaf buffer's position and the stash peak, then the logical accesses,\n"
"path reads, path writes, dummy reads, eviction episodes and stash hits\n"
"the request adds; it is current when a check raises.");

static PyObject *
serve_request(PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 20) {
        PyErr_Format(PyExc_TypeError, "serve takes 20 arguments, got %zd", nargs);
        return NULL;
    }
    /* Zeroed: a buffer never taken releases as nothing. */
    Request r;
    memset(&r, 0, sizeof(r));
    Level levels[MAX_LEVELS];
    Py_buffer slots = {0}, occ = {0}, ids = {0}, remaps = {0}, leaf_buf = {0}, state = {0};
    Work w;
    long long local[4 * WORK_ON_STACK];
    long long *work = local;
    PyObject *result = NULL;
    if (parse_tree(args, &r.tree, &slots, &occ) < 0) {
        return NULL;
    }
    r.stash = (Stash *)args[0];
    if (parse_walk(args[6], &r.map, levels) < 0) {
        goto done;
    }

    /* limits: num_blocks, num_leaves, capacity, evict, trigger, drain,
     * max_dummies. */
    PyObject *limits = args[14];
    if (!PyTuple_Check(limits) || PyTuple_GET_SIZE(limits) != 7) {
        PyErr_SetString(PyExc_TypeError, "limits must be a tuple of 7 ints");
        goto done;
    }
    /* A block id must fit a slot and the map. */
    long long most_blocks = r.map.num_entries < INT32_MAX ? r.map.num_entries : INT32_MAX;
    if (bounded(PyTuple_GET_ITEM(limits, 0), 1, most_blocks + 1, "num_blocks",
                &r.num_blocks) < 0
        || bounded(PyTuple_GET_ITEM(limits, 1), 1, (1LL << r.tree.depth) + 1, "num_leaves",
                   &r.num_leaves) < 0
        || bounded(PyTuple_GET_ITEM(limits, 2), -1, LLONG_MAX, "capacity", &r.capacity) < 0
        || bounded(PyTuple_GET_ITEM(limits, 3), 0, 2, "evict", &r.evict) < 0
        || bounded(PyTuple_GET_ITEM(limits, 4), 0, LLONG_MAX, "trigger", &r.trigger) < 0
        || bounded(PyTuple_GET_ITEM(limits, 5), 0, LLONG_MAX, "drain", &r.drain) < 0
        || bounded(PyTuple_GET_ITEM(limits, 6), 0, LLONG_MAX, "max_dummies",
                   &r.max_dummies) < 0
        || check_path(&r.tree, r.num_leaves - 1) < 0) {
        goto done;
    }

    Py_ssize_t n = 0;
    if (args[7] != Py_None) {
        if (buffer_of(args[7], &ids, 8, INT64_CODES, 0, "ids") < 0) {
            goto done;
        }
        n = ids.len / 8;
    }
    long long size, by_position;
    if (bounded(args[8], 1, LLONG_MAX, "size", &size) < 0
        || bounded(args[10], 0, LLONG_MAX, "by_position", &by_position) < 0) {
        goto done;
    }
    const int64_t *next_remap = NULL, *remaps_end = NULL;
    if (args[9] != Py_None) {
        if (buffer_of(args[9], &remaps, 8, INT64_CODES, 0, "remaps") < 0) {
            goto done;
        }
        next_remap = remaps.buf;
        remaps_end = next_remap + remaps.len / 8;
    }
    else if (by_position) {
        PyErr_SetString(PyExc_ValueError, "bins by position need the plan's remaps");
        goto done;
    }
    if (args[11] != Py_None && !PyCallable_Check(args[11])) {
        PyErr_SetString(PyExc_TypeError, "lookup must be callable or None");
        goto done;
    }
    r.lookup = args[11] == Py_None ? NULL : args[11];
    if (!PyList_CheckExact(args[15])) {
        PyErr_SetString(PyExc_TypeError, "held_paths must be a list");
        goto done;
    }
    r.held = args[15];
    r.holding = PyObject_IsTrue(args[16]);
    if (r.holding < 0) {
        goto done;
    }
    r.observer = args[17] == Py_None ? NULL : args[17];
    if (args[18] != Py_None && !PyList_CheckExact(args[18])) {
        PyErr_SetString(PyExc_TypeError, "history must be a list or None");
        goto done;
    }
    r.history = args[18] == Py_None ? NULL : args[18];
    if (buffer_of(args[19], &state, 8, INT64_CODES, 1, "state") < 0) {
        goto done;
    }
    r.state = state.buf;
    if (state.len / 8 != STATE_FIELDS || r.state[CURSOR] < 0) {
        PyErr_Format(PyExc_ValueError, "state needs %d fields and a cursor >= 0",
                     STATE_FIELDS);
        goto done;
    }
    if (parse_stream(args[12], args[13], &leaf_buf, &r.state[LEAF_POS], r.num_leaves,
                     &r.leaves) < 0) {
        goto done;
    }

    if (args[7] == Py_None) {
        if (serve_commit(&r) < 0) {
            goto done;
        }
    }
    else if (n == 0) {
        if (after_bin(&r, 1) < 0) {
            goto done;
        }
    }
    else {
        Py_ssize_t most = size < n ? (Py_ssize_t)size : n;
        if (most > WORK_ON_STACK) {
            work = PyMem_Malloc((size_t)most * 4 * sizeof(long long));
            if (work == NULL) {
                PyErr_NoMemory();
                goto done;
            }
        }
        w.ids = work;
        w.leaves = w.ids + most;
        w.read = w.leaves + most;
        w.hit = (char *)(w.read + most);
        const int64_t *request = ids.buf;
        long long cursor = r.state[CURSOR];
        Py_ssize_t offset = 0;
        for (long long bin = 0; offset < n; bin++) {
            long long chunk = size - cursor % size;
            if (chunk > n - offset) {
                chunk = n - offset;
            }
            if (serve_bin(&r, &w, request + offset, (Py_ssize_t)chunk, cursor,
                          bin < by_position ? &next_remap : NULL, remaps_end) < 0) {
                goto done;
            }
            offset += (Py_ssize_t)chunk;
            cursor += chunk;
        }
    }
    result = Py_None;
    Py_INCREF(result);
done:
    if (work != local) {
        PyMem_Free(work);
    }
    release_walk(&r.map);
    Py_buffer *views[] = {&state, &leaf_buf, &remaps, &ids, &occ, &slots};
    for (size_t i = 0; i < sizeof(views) / sizeof(views[0]); i++) {
        PyBuffer_Release(views[i]);
    }
    return result;
}

static PyObject *
serve(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (serving) {
        PyErr_SetString(PyExc_RuntimeError, "serve was called from one of its own callbacks");
        return NULL;
    }
    serving = 1;
    PyObject *result = serve_request(args, nargs);
    serving = 0;
    return result;
}

/* ------------------------------------------------------------------ */
/* Stash: the mapping protocol                                         */
/* ------------------------------------------------------------------ */

/* What a key converts to: an int (no bool) or an integer with __index__,
 * as a long long. */
enum { KEY_INT, KEY_NOT_INT, KEY_OVERFLOW, KEY_ERROR };

static int
as_key(PyObject *obj, long long *out)
{
    if (PyBool_Check(obj) || !PyIndex_Check(obj)) {
        return KEY_NOT_INT;
    }
    PyObject *index = PyNumber_Index(obj);
    if (index == NULL) {
        return KEY_ERROR;
    }
    int overflow;
    *out = PyLong_AsLongLongAndOverflow(index, &overflow);
    Py_DECREF(index);
    if (*out == -1 && PyErr_Occurred()) {
        return KEY_ERROR;
    }
    return overflow ? KEY_OVERFLOW : KEY_INT;
}

/* An int in [0, hi] to insert. */
static int
inserted(PyObject *obj, long long hi, const char *what, long long *out)
{
    int key = as_key(obj, out);
    if (key == KEY_INT && *out >= 0 && *out <= hi) {
        return 0;
    }
    if (key == KEY_NOT_INT) {
        PyErr_Format(PyExc_TypeError, "a stash %s must be an int, not %.100s", what,
                     Py_TYPE(obj)->tp_name);
    }
    else if (key != KEY_ERROR) {
        PyErr_Format(PyExc_ValueError, "stash %s %R outside [0, %lld]", what, obj, hi);
    }
    return -1;
}

/* The position of the key's entry, -1 when the stash has none (a key that
 * is no int is in no stash), -2 on an error. */
static Py_ssize_t
lookup(Stash *s, PyObject *key)
{
    long long id;
    switch (as_key(key, &id)) {
    case KEY_INT:
        return find(s, id);
    case KEY_ERROR:
        return -2;
    default:
        return -1;
    }
}

static PyObject *
stash_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    if (PyTuple_GET_SIZE(args) || (kwargs != NULL && PyObject_Length(kwargs))) {
        PyErr_SetString(PyExc_TypeError, "Stash() takes no arguments");
        return NULL;
    }
    Stash *s = (Stash *)type->tp_alloc(type, 0);
    if (s != NULL && reindex(s, STASH_MIN_SIZE) < 0) {
        Py_CLEAR(s);
    }
    return (PyObject *)s;
}

static void
stash_dealloc(Stash *s)
{
    PyMem_Free(s->entries);
    PyMem_Free(s->index);
    Py_TYPE(s)->tp_free((PyObject *)s);
}

static Py_ssize_t
stash_len(Stash *s)
{
    return s->live;
}

static int
stash_contains(Stash *s, PyObject *key)
{
    Py_ssize_t pos = lookup(s, key);
    return pos == -2 ? -1 : pos >= 0;
}

static PyObject *
stash_getitem(Stash *s, PyObject *key)
{
    Py_ssize_t pos = lookup(s, key);
    if (pos == -1) {
        PyErr_SetObject(PyExc_KeyError, key);
    }
    return pos < 0 ? NULL : PyLong_FromLongLong(s->entries[pos].leaf);
}

static int
stash_setitem(Stash *s, PyObject *key, PyObject *value)
{
    if (value == NULL) {
        Py_ssize_t pos = lookup(s, key);
        if (pos == -1) {
            PyErr_SetObject(PyExc_KeyError, key);
        }
        if (pos < 0) {
            return -1;
        }
        delete_at(s, pos);
        settle(s);
        return 0;
    }
    long long id, leaf;
    if (inserted(key, INT32_MAX, "id", &id) < 0 || inserted(value, INT64_MAX, "leaf", &leaf) < 0
        || make_room(s, 1) < 0) {
        return -1;
    }
    put(s, (int32_t)id, leaf);
    return 0;
}

static PyObject *
stash_items(Stash *s, PyObject *unused)
{
    (void)unused;
    PyObject *items = PyList_New(s->live);
    for (Py_ssize_t pos = 0, i = 0; items != NULL && i < s->live; pos++) {
        if (s->entries[pos].id < 0) {
            continue;
        }
        PyObject *item = Py_BuildValue("(iL)", (int)s->entries[pos].id,
                                       (long long)s->entries[pos].leaf);
        if (item == NULL) {
            Py_CLEAR(items);
            break;
        }
        PyList_SET_ITEM(items, i++, item);
    }
    return items;
}

/* Iteration runs over a snapshot of the ids, in order. */
static PyObject *
stash_iter(Stash *s)
{
    PyObject *ids = PyList_New(s->live);
    for (Py_ssize_t pos = 0, i = 0; ids != NULL && i < s->live; pos++) {
        if (s->entries[pos].id < 0) {
            continue;
        }
        PyObject *id = PyLong_FromLong(s->entries[pos].id);
        if (id == NULL) {
            Py_CLEAR(ids);
            break;
        }
        PyList_SET_ITEM(ids, i++, id);
    }
    if (ids == NULL) {
        return NULL;
    }
    PyObject *iterator = PyObject_GetIter(ids);
    Py_DECREF(ids);
    return iterator;
}

static PyObject *
stash_pop(Stash *s, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1 || nargs > 2) {
        PyErr_Format(PyExc_TypeError, "pop takes 1 or 2 arguments, got %zd", nargs);
        return NULL;
    }
    Py_ssize_t pos = lookup(s, args[0]);
    if (pos == -2) {
        return NULL;
    }
    if (pos == -1) {
        if (nargs == 1) {
            PyErr_SetObject(PyExc_KeyError, args[0]);
            return NULL;
        }
        Py_INCREF(args[1]);
        return args[1];
    }
    PyObject *leaf = PyLong_FromLongLong(s->entries[pos].leaf);
    if (leaf != NULL) {
        delete_at(s, pos);
        settle(s);
    }
    return leaf;
}

static PyObject *
stash_extend(Stash *s, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "extend takes 2 arguments, got %zd", nargs);
        return NULL;
    }
    Py_buffer ids, leaves;
    if (buffer_of(args[0], &ids, 8, INT64_CODES, 0, "ids") < 0) {
        return NULL;
    }
    if (buffer_of(args[1], &leaves, 8, INT64_CODES, 0, "leaves") < 0) {
        PyBuffer_Release(&ids);
        return NULL;
    }
    PyObject *result = NULL;
    Py_ssize_t n = ids.len / 8;
    const int64_t *id = ids.buf, *leaf = leaves.buf;
    if (leaves.len / 8 != n) {
        PyErr_Format(PyExc_ValueError, "%zd ids and %zd leaves", n, leaves.len / 8);
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        if (id[i] < 0 || id[i] > INT32_MAX || leaf[i] < 0) {
            PyErr_Format(PyExc_ValueError, "entry %zd: id %lld outside [0, 2**31) or leaf %lld "
                         "below 0", i, (long long)id[i], (long long)leaf[i]);
            goto done;
        }
    }
    if (make_room(s, n) < 0) {
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        put(s, (int32_t)id[i], leaf[i]);
    }
    result = Py_None;
    Py_INCREF(result);
done:
    PyBuffer_Release(&ids);
    PyBuffer_Release(&leaves);
    return result;
}

static PyMethodDef stash_methods[] = {
    {"items", (PyCFunction)stash_items, METH_NOARGS,
     "items()\n--\n\nThe (id, leaf) pairs, in insertion order."},
    {"pop", (PyCFunction)(void (*)(void))stash_pop, METH_FASTCALL,
     "pop(id[, default])\n--\n\nRemove ``id`` and return its leaf; ``default`` (else\n"
     "KeyError) when absent."},
    {"extend", (PyCFunction)(void (*)(void))stash_extend, METH_FASTCALL,
     "extend(ids, leaves)\n--\n\nAssign each int64 leaf to its int64 id, in order: all\n"
     "checked before the first."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods stash_as_sequence = {
    .sq_contains = (objobjproc)stash_contains,
};

static PyMappingMethods stash_as_mapping = {
    .mp_length = (lenfunc)stash_len,
    .mp_subscript = (binaryfunc)stash_getitem,
    .mp_ass_subscript = (objobjargproc)stash_setitem,
};

PyDoc_STRVAR(stash_doc,
"Stash()\n"
"--\n\n"
"A stash: block ids in [0, 2**31) to leaves >= 0, in insertion order, as a\n"
"dict keeps it.  Assigning to a present id updates its leaf in place;\n"
"deleting an id and assigning it again moves it to the end; iteration\n"
"(over a snapshot of the ids) and ``items()`` follow insertion order.  Both\n"
"are checked when inserted, and a rejected insertion changes nothing.\n"
"The kernels work on it directly.");

static PyTypeObject StashType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.oram.write_back.Stash",
    .tp_basicsize = sizeof(Stash),
    .tp_dealloc = (destructor)stash_dealloc,
    .tp_as_sequence = &stash_as_sequence,
    .tp_as_mapping = &stash_as_mapping,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = stash_doc,
    .tp_iter = (getiterfunc)stash_iter,
    .tp_methods = stash_methods,
    .tp_new = stash_new,
};

/* ------------------------------------------------------------------ */
/* group_sum: a training step's gradients, one sum per distinct row     */
/* ------------------------------------------------------------------ */

/* Columns summed at a time: every accumulator is a stack array this wide. */
#define SUM_COLUMNS 64
/* numpy's pairwise block: up to this many rows, eight accumulators. */
#define PAIRWISE_BLOCK 128

/* sum[c], for c < width, becomes numpy's float32 pairwise sum of column c
 * over the n rows grad + rows[i] * dim, operation for operation (numpy's
 * `pairwise_sum` on a strided column): under 8 rows one running sum from
 * -0.0; up to PAIRWISE_BLOCK rows eight accumulators, accumulator k taking
 * rows k, k + 8, ... up to the last multiple of 8, folded as
 * ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the remaining
 * rows added in order; above that the first n / 2 rows (less n / 2 mod 8)
 * and the others summed apart, then added. */
static void
pairwise_sum(const float *grad, Py_ssize_t dim, const int64_t *rows, Py_ssize_t n,
             Py_ssize_t width, float *sum)
{
    Py_ssize_t i = 0;
    if (n < 8) {
        for (Py_ssize_t c = 0; c < width; c++) {
            sum[c] = -0.0f;
        }
    }
    else if (n <= PAIRWISE_BLOCK) {
        float r[8][SUM_COLUMNS];
        for (int k = 0; k < 8; k++) {
            memcpy(r[k], grad + rows[k] * dim, (size_t)width * sizeof(float));
        }
        for (i = 8; i < n - n % 8; i += 8) {
            for (int k = 0; k < 8; k++) {
                const float *row = grad + rows[i + k] * dim;
                for (Py_ssize_t c = 0; c < width; c++) {
                    r[k][c] += row[c];
                }
            }
        }
        for (Py_ssize_t c = 0; c < width; c++) {
            sum[c] = ((r[0][c] + r[1][c]) + (r[2][c] + r[3][c]))
                     + ((r[4][c] + r[5][c]) + (r[6][c] + r[7][c]));
        }
    }
    else {
        Py_ssize_t half = n / 2;
        half -= half % 8;
        float left[SUM_COLUMNS];
        pairwise_sum(grad, dim, rows, half, width, left);
        pairwise_sum(grad, dim, rows + half, n - half, width, sum);
        for (Py_ssize_t c = 0; c < width; c++) {
            sum[c] = left[c] + sum[c];
        }
        return;
    }
    for (; i < n; i++) {
        const float *row = grad + rows[i] * dim;
        for (Py_ssize_t c = 0; c < width; c++) {
            sum[c] += row[c];
        }
    }
}

/* Whether two buffers share no byte. */
static int
disjoint(const Py_buffer *a, const Py_buffer *b)
{
    uintptr_t x = (uintptr_t)a->buf, y = (uintptr_t)b->buf;
    return x + (uintptr_t)a->len <= y || y + (uintptr_t)b->len <= x;
}

PyDoc_STRVAR(group_sum_doc,
"group_sum(gradients, order, starts, out)\n"
"--\n\n"
"Sum a training step's gradients per distinct row, reading the rows in\n"
"place.  ``gradients`` is (n, dim) float32; ``order`` (int64, n entries in\n"
"[0, n)) lists its rows with equal ids adjacent (a stable argsort of the\n"
"ids) and ``starts`` (int64) where each run of them begins: 0 first,\n"
"strictly increasing, below n.  Row r of ``out`` ((len(starts), dim)\n"
"float32, sharing no byte with the other operands) becomes\n"
"``numpy.add.reduceat(gradients[order], starts, axis=0)[r]`` bit for bit:\n"
"the run's first row, plus numpy's pairwise sum of the rest when there is\n"
"a rest.  Every operand is checked before ``out`` is written.");

static PyObject *
group_sum(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    static const struct {
        Py_ssize_t itemsize;
        const char *codes;
        int must_write, ndim;
        const char *what;
    } spec[4] = {
        {4, "f", 0, 2, "gradients"},
        {8, INT64_CODES, 0, 1, "order"},
        {8, INT64_CODES, 0, 1, "starts"},
        {4, "f", 1, 2, "out"},
    };
    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError, "group_sum takes 4 arguments, got %zd", nargs);
        return NULL;
    }
    Py_buffer view[4];
    int held = 0;
    PyObject *result = NULL;
    for (; held < 4; held++) {
        if (buffer_of(args[held], &view[held], spec[held].itemsize, spec[held].codes,
                      spec[held].must_write, spec[held].what) < 0) {
            goto done;
        }
        if (view[held].ndim != spec[held].ndim) {
            PyErr_Format(PyExc_ValueError, "%s has %d dimensions, need %d", spec[held].what,
                         view[held].ndim, spec[held].ndim);
            PyBuffer_Release(&view[held]);
            goto done;
        }
    }
    Py_ssize_t n = view[0].shape[0], dim = view[0].shape[1], runs = view[2].shape[0];
    const float *grad = view[0].buf;
    const int64_t *order = view[1].buf, *starts = view[2].buf;
    float *out = view[3].buf;
    if (view[1].shape[0] != n) {
        PyErr_Format(PyExc_ValueError, "order has %zd entries for %zd gradient rows",
                     view[1].shape[0], n);
        goto done;
    }
    if (view[3].shape[0] != runs || view[3].shape[1] != dim) {
        PyErr_Format(PyExc_ValueError, "out is (%zd, %zd), need (%zd, %zd)",
                     view[3].shape[0], view[3].shape[1], runs, dim);
        goto done;
    }
    for (int k = 0; k < 3; k++) {
        if (!disjoint(&view[3], &view[k])) {
            PyErr_Format(PyExc_ValueError, "out overlaps %s", spec[k].what);
            goto done;
        }
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        if (order[i] < 0 || order[i] >= n) {
            PyErr_Format(PyExc_ValueError, "order[%zd] = %lld outside [0, %zd)", i,
                         (long long)order[i], n);
            goto done;
        }
    }
    if (runs == 0 ? n != 0 : (starts[0] != 0 || starts[runs - 1] >= n)) {
        PyErr_Format(PyExc_ValueError,
                     "starts must begin at 0 and end below %zd (it has %zd runs)", n, runs);
        goto done;
    }
    for (Py_ssize_t r = 1; r < runs; r++) {
        if (starts[r] <= starts[r - 1]) {
            PyErr_Format(PyExc_ValueError, "starts[%zd] = %lld does not increase", r,
                         (long long)starts[r]);
            goto done;
        }
    }
    for (Py_ssize_t r = 0; r < runs; r++) {
        Py_ssize_t begin = starts[r], end = r + 1 < runs ? starts[r + 1] : n;
        const float *first = grad + order[begin] * dim;
        float *sum = out + r * dim;
        if (end - begin == 1) {
            memcpy(sum, first, (size_t)dim * sizeof(float));
            continue;
        }
        for (Py_ssize_t c0 = 0; c0 < dim; c0 += SUM_COLUMNS) {
            Py_ssize_t width = dim - c0 < SUM_COLUMNS ? dim - c0 : SUM_COLUMNS;
            pairwise_sum(grad + c0, dim, order + begin + 1, end - begin - 1, width, sum + c0);
            for (Py_ssize_t c = c0; c < c0 + width; c++) {
                sum[c] = first[c] + sum[c];
            }
        }
    }
    result = Py_None;
    Py_INCREF(result);
done:
    while (held--) {
        PyBuffer_Release(&view[held]);
    }
    return result;
}

static PyMethodDef methods[] = {
    {"serve", (PyCFunction)(void (*)(void))serve, METH_FASTCALL, serve_doc},
    {"walk", (PyCFunction)(void (*)(void))walk, METH_FASTCALL, walk_doc},
    {"group_sum", (PyCFunction)(void (*)(void))group_sum, METH_FASTCALL, group_sum_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT,
    "_write_back",
    "The request kernel, path read and greedy write-backs of the array engine "
    "(see repro.oram.write_back).",
    -1,
    methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__write_back(void)
{
    observe_name = PyUnicode_InternFromString("observe_path");
    observe_kwnames = Py_BuildValue("(s)", "dummy");
    if (observe_name == NULL || observe_kwnames == NULL || PyType_Ready(&StashType) < 0) {
        return NULL;
    }
    PyObject *module = PyModule_Create(&module_def);
    if (module != NULL && PyModule_AddObjectRef(module, "Stash", (PyObject *)&StashType) < 0) {
        Py_CLEAR(module);
    }
    return module;
}
