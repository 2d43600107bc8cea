/*
 * The array engine's request kernel: the bin loop, the path read and the
 * greedy write-backs, over the engine's own objects.
 *
 * Path ORAM (Stefanov et al., CCS'13) reads a path into the stash and
 * writes it back by the eviction rule, occupancy aware: every stash block
 * whose leaf shares a level with the path may go back onto it, as deep as
 * that prefix allows, into the free slots each bucket actually has.
 * LAORAM reads several paths before writing them back, so a later
 * write-back finds buckets an earlier one refilled; a held training step
 * writes its read paths back at its commit as one subtree.  `serve` runs a
 * whole request on these: its bins, the commit bin of a held step, or one
 * dummy read.
 *
 * Every function takes the engine's objects as they are:
 *
 *   stash       the {id: leaf} dict, iterated in insertion order; the fetch
 *               inserts into it, and every id a write-back places is
 *               deleted from it, and the order of the rest is kept;
 *   caps, level_base, node_base
 *               per level, the bucket capacity, the first slot of the level
 *               and its first bucket index (sequences of depth + 1 ints);
 *   slots, occ  the tree's slot buffer (int32, -1 empty) and occupancy
 *               buffer (uint8), written in place;
 *   depth       the tree's depth (leaves are [0, 2**depth));
 *   tags        the fetch's labels (int32): a fetched id enters the stash
 *               under tags[id];
 *   leaf        the path read or written back, or leaves, the paths a hold
 *               read.
 *
 * Every write-back decision is the per-object reference planner's
 * (tests/oracle/write_back.py): entries grouped by the level they can reach
 * in stash order, a LIFO pool per bucket, slots filled in ascending order;
 * the fetch reads as the reference tree does (tests/oracle/tree.py), and
 * `serve` decides what the reference client's per-bin access decides
 * (tests/oracle/laoram.py).  Every operand is checked before the first
 * write, so a call either raises TypeError / ValueError and leaves the
 * stash and the tree as they were, or writes only slots and occupancies of
 * the path (or subtree) it was given.  Stash ids and leaves must be exact
 * ints: deleting one then runs no Python code, so nothing can re-enter the
 * kernel or change the dict while it holds the GIL and one module-level
 * scratch buffer.  `serve` calls back into Python (the plan, the leaf
 * stream, a recursive map's update, the observer); it holds no borrowed
 * reference and no scratch pointer across those calls, and a callback that
 * starts a second `serve` on its thread gets a RuntimeError.
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

typedef struct {
    PyObject *key; /* borrowed from the stash until the entry is placed */
    int32_t id;
    int32_t bits; /* (leaf ^ path) bit length: the entry reaches depth - bits */
} Item;

typedef struct {
    Item item;
    long long node; /* the entry's deepest node in the subtree, at its level */
    Py_ssize_t order; /* stash position: the tie-break within a node */
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

static void
release(Py_buffer *slots, Py_buffer *occ)
{
    PyBuffer_Release(slots);
    PyBuffer_Release(occ);
}

/* The operands every call shares: args[0], args[1..6]. */
static int
parse_tree(PyObject *const *args, Tree *tree, Py_buffer *slots, Py_buffer *occ)
{
    /* Exact: a subclass's own bookkeeping (an OrderedDict's links) would
     * not see the deletions. */
    if (!PyDict_CheckExact(args[0])) {
        PyErr_Format(PyExc_TypeError, "stash must be a dict, not %.100s",
                     Py_TYPE(args[0])->tp_name);
        return -1;
    }
    long long depth;
    if (bounded(args[6], 0, MAX_DEPTH + 1, "depth", &depth) < 0
        || per_level(args[1], (int)depth, MAX_CAPACITY + 1, "caps", tree->caps) < 0
        || per_level(args[2], (int)depth, PY_SSIZE_T_MAX, "level_base", tree->level_base) < 0
        || per_level(args[3], (int)depth, PY_SSIZE_T_MAX, "node_base", tree->node_base) < 0) {
        return -1;
    }
    tree->depth = (int)depth;
    if (buffer_of(args[4], slots, 4, "il", 1, "slots") < 0) {
        return -1;
    }
    if (buffer_of(args[5], occ, 1, "B", 1, "occ") < 0) {
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

/* One stash entry: an exact int id that fits a slot, an exact int leaf. */
static int
stash_entry(PyObject *key, PyObject *value, int depth, Item *item, long long *leaf)
{
    if (!PyLong_CheckExact(key) || !PyLong_CheckExact(value)) {
        PyErr_Format(PyExc_TypeError, "stash entries must be int: int, not %.100s: %.100s",
                     Py_TYPE(key)->tp_name, Py_TYPE(value)->tp_name);
        return -1;
    }
    int overflow;
    long long id = PyLong_AsLongLongAndOverflow(key, &overflow);
    if (overflow || id < 0 || id > INT32_MAX) {
        PyErr_Format(PyExc_ValueError, "stash id %R outside [0, 2**31)", key);
        return -1;
    }
    *leaf = PyLong_AsLongLongAndOverflow(value, &overflow);
    if (overflow || *leaf < 0 || *leaf >= (1LL << depth)) {
        PyErr_Format(PyExc_ValueError, "stash leaf %R of id %R outside [0, 2**%d)", value,
                     key, depth);
        return -1;
    }
    item->key = key;
    item->id = (int32_t)id;
    return 0;
}

/* Pop `take` items off the pool's end into the bucket's free slots, in
 * ascending slot order, and delete them from the stash. */
static int
place(PyObject *stash, const Tree *tree, int level, long long node, Item *pool,
      Py_ssize_t *top, long long take)
{
    long long cap = tree->caps[level];
    long long bucket = tree->node_base[level] + node;
    long long used = tree->occ[bucket];
    int32_t *slot = tree->slots + tree->level_base[level] + node * cap + used;
    for (long long offset = 0; offset < take; offset++) {
        Item *victim = &pool[--*top];
        slot[offset] = victim->id;
        if (PyDict_DelItem(stash, victim->key) < 0) {
            return -1;
        }
    }
    tree->occ[bucket] = (uint8_t)(used + take);
    return 0;
}

/* The greedy write-back onto the path to `leaf`, a path check_path passed. */
static int
write_back_path(PyObject *stash, Tree *tree, long long leaf)
{
    int depth = tree->depth;
    Py_ssize_t n = PyDict_GET_SIZE(stash);
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
    Py_ssize_t pos = 0, i = 0;
    PyObject *key, *value;
    while (PyDict_Next(stash, &pos, &key, &value)) {
        long long resident;
        if (stash_entry(key, value, depth, &items[i], &resident) < 0) {
            return -1;
        }
        items[i].bits = bit_length((unsigned long long)(resident ^ leaf));
        start[items[i].bits + 1]++;
        i++;
    }
    for (int bits = 1; bits <= depth + 1; bits++) {
        start[bits] += start[bits - 1];
    }
    Py_ssize_t fill[MAX_DEPTH + 1];
    memcpy(fill, start, sizeof(fill));
    for (i = 0; i < n; i++) {
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
        if (take > 0 && place(stash, tree, level, node, pool, &top, take) < 0) {
            return -1;
        }
    }
    return 0;
}

PyDoc_STRVAR(write_back_doc,
"write_back(stash, caps, level_base, node_base, slots, occ, depth, leaf)\n"
"--\n\n"
"Greedy write-back from the stash onto the path to ``leaf``.\n\n"
"Every entry joins the pool at the deepest level its leaf shares with the\n"
"path, in stash order; from the leaf level up, each bucket takes its free\n"
"slots' worth off the pool's end, behind its occupants, and the rest rises.\n"
"Placed ids leave the stash.  On a path its own read just emptied this is\n"
"the plain greedy rule; on a path whose shared buckets an earlier\n"
"write-back refilled, it fills only what is free.");

static PyObject *
write_back(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 8) {
        PyErr_Format(PyExc_TypeError, "write_back takes 8 arguments, got %zd", nargs);
        return NULL;
    }
    Tree tree;
    Py_buffer slots, occ;
    if (parse_tree(args, &tree, &slots, &occ) < 0) {
        return NULL;
    }
    long long leaf;
    int failed = bounded(args[7], 0, 1LL << tree.depth, "leaf", &leaf) < 0
                 || check_path(&tree, leaf) < 0
                 || write_back_path(args[0], &tree, leaf) < 0;
    release(&slots, &occ);
    if (failed) {
        return NULL;
    }
    Py_RETURN_NONE;
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
    return x->order < y->order ? -1 : (x->order > y->order);
}

static int
ascending(const void *a, const void *b)
{
    long long x = *(const long long *)a, y = *(const long long *)b;
    return x < y ? -1 : (x > y);
}

/* The subtree write-back of the paths to the leaves `held` lists. */
static int
write_back_held(PyObject *stash, Tree *tree, PyObject *held)
{
    int depth = tree->depth;
    PyObject *leaves = PySequence_Fast(held, "leaves must be a sequence");
    if (leaves == NULL) {
        return -1;
    }
    Py_ssize_t num_paths = PySequence_Fast_GET_SIZE(leaves);
    Py_ssize_t n = PyDict_GET_SIZE(stash);
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
    Py_ssize_t pos = 0, i = 0;
    PyObject *key, *value;
    while (PyDict_Next(stash, &pos, &key, &value)) {
        HeldItem *entry = &entries[i];
        long long leaf;
        if (stash_entry(key, value, depth, &entry->item, &leaf) < 0) {
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
        entry->item.bits = bits;
        entry->node = leaf >> bits;
        entry->order = i++;
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
            if (take > 0 && place(stash, tree, level, node, pool, &top, take) < 0) {
                goto fail;
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
    Py_DECREF(leaves);
    return 0;
fail:
    Py_DECREF(leaves);
    return -1;
}

PyDoc_STRVAR(held_write_back_doc,
"held_write_back(stash, caps, level_base, node_base, slots, occ, depth, leaves)\n"
"--\n\n"
"Write a held step's read paths back at its commit, as one subtree.\n\n"
"Each entry joins at its deepest bucket in the subtree the paths to\n"
"``leaves`` span: the node on its leaf's path at the longest prefix its\n"
"leaf shares with a held leaf.  From the leaf level up to the root, each\n"
"subtree node with candidates, in ascending node order, pools what its\n"
"children left (left child first) and then the entries that join there,\n"
"in stash order; it fills its free slots off the pool's end and passes\n"
"the rest to its parent.  What the root leaves stays in the stash.");

static PyObject *
held_write_back(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 8) {
        PyErr_Format(PyExc_TypeError, "held_write_back takes 8 arguments, got %zd", nargs);
        return NULL;
    }
    Tree tree;
    Py_buffer slots, occ;
    if (parse_tree(args, &tree, &slots, &occ) < 0) {
        return NULL;
    }
    int failed = write_back_held(args[0], &tree, args[7]) < 0;
    release(&slots, &occ);
    if (failed) {
        return NULL;
    }
    Py_RETURN_NONE;
}

/* Read the path to `leaf`, a path check_path passed, into the stash. */
static int
fetch_path(PyObject *stash, Tree *tree, const int32_t *labels, Py_ssize_t num_tags,
           long long leaf)
{
    int depth = tree->depth;
    /* Every occupancy and id is checked before the first write.  The
     * inserts check each id again: a stash key's comparison could run
     * Python code that writes the buffers, so only what is read is used. */
    long long used[MAX_DEPTH + 1];
    for (int pass = 0; pass < 2; pass++) {
        for (int level = 0; level <= depth; level++) {
            long long node = leaf >> (depth - level);
            long long bucket = tree->node_base[level] + node;
            long long first = tree->level_base[level] + node * tree->caps[level];
            if (pass == 0) {
                used[level] = tree->occ[bucket];
                if (used[level] > tree->caps[level]) {
                    PyErr_Format(PyExc_ValueError,
                                 "bucket %lld holds %lld blocks, its capacity is %lld", bucket,
                                 used[level], tree->caps[level]);
                    return -1;
                }
            }
            for (long long slot = first; slot < first + used[level]; slot++) {
                int32_t id = tree->slots[slot];
                if (id < 0 || id >= num_tags) {
                    PyErr_Format(PyExc_ValueError,
                                 "slot %lld holds id %d, outside the %zd tags", slot, (int)id,
                                 num_tags);
                    return -1;
                }
                if (pass == 0) {
                    continue;
                }
                PyObject *key = PyLong_FromLong(id);
                PyObject *value = key ? PyLong_FromLong(labels[id]) : NULL;
                int failed = value == NULL || PyDict_SetItem(stash, key, value) < 0;
                Py_XDECREF(key);
                Py_XDECREF(value);
                if (failed) {
                    return -1;
                }
                tree->slots[slot] = -1;
            }
            if (pass == 1 && used[level]) {
                tree->occ[bucket] = 0;
            }
        }
    }
    return 0;
}

PyDoc_STRVAR(fetch_doc,
"fetch(stash, caps, level_base, node_base, slots, occ, depth, tags, leaf)\n"
"--\n\n"
"Read the path to ``leaf`` into the stash.\n\n"
"From the root down, each bucket's occupied slots enter the stash in slot\n"
"order, each id under ``tags[id]`` (the owner's labels, the metadata a\n"
"block carries on the wire); the slots are blanked and the occupancies\n"
"zeroed.  Every occupancy and every id read is checked first.");

static PyObject *
fetch(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 9) {
        PyErr_Format(PyExc_TypeError, "fetch takes 9 arguments, got %zd", nargs);
        return NULL;
    }
    Tree tree;
    Py_buffer slots, occ, tags;
    if (parse_tree(args, &tree, &slots, &occ) < 0) {
        return NULL;
    }
    if (buffer_of(args[7], &tags, 4, "il", 0, "tags") < 0) {
        release(&slots, &occ);
        return NULL;
    }
    long long leaf;
    int failed = bounded(args[8], 0, 1LL << tree.depth, "leaf", &leaf) < 0
                 || check_path(&tree, leaf) < 0
                 || fetch_path(args[0], &tree, tags.buf, tags.len / 4, leaf) < 0;
    PyBuffer_Release(&tags);
    release(&slots, &occ);
    if (failed) {
        return NULL;
    }
    Py_RETURN_NONE;
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
    PyObject *stash;
    Tree tree;
    const int32_t *tags;
    Py_ssize_t num_tags;
    int32_t *map; /* the dense map, swapped in place; NULL: call `update` */
    PyObject *update;
    PyObject *lookup; /* the plan's consume_next_leaf; NULL: no plan */
    PyObject *integers;
    int64_t *leaf_buf;
    Py_ssize_t leaf_len;
    long long num_blocks, num_leaves, capacity;
    long long evict, trigger, drain, max_dummies;
    PyObject *held;
    int holding;
    PyObject *observer; /* NULL: no observer */
    PyObject *history; /* NULL: no history */
    int64_t *state;
} Request;

/* One bin's distinct ids, in first-occurrence order, and what the bin
 * decides for each; one allocation per request, sized for its largest bin. */
typedef struct {
    PyObject **keys;
    long long *ids;
    long long *leaves;
    long long *read;
    char *hit;
} Work;

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

/* The stream's next leaf: the prefetched block first, refilled with one
 * `integers(0, num_leaves, size=len(leaf_buf))` call when it runs out. */
static int
draw(Request *r, long long *leaf)
{
    if (r->state[LEAF_POS] == r->leaf_len) {
        PyObject *args[3] = {NULL, NULL, NULL};
        PyObject *kwnames = Py_BuildValue("(s)", "size");
        args[0] = PyLong_FromLong(0);
        args[1] = PyLong_FromLongLong(r->num_leaves);
        args[2] = PyLong_FromSsize_t(r->leaf_len);
        PyObject *block = NULL;
        if (kwnames && args[0] && args[1] && args[2]) {
            block = PyObject_Vectorcall(r->integers, args, 2, kwnames);
        }
        Py_XDECREF(kwnames);
        for (int i = 0; i < 3; i++) {
            Py_XDECREF(args[i]);
        }
        if (block == NULL) {
            return -1;
        }
        Py_buffer view;
        int failed = buffer_of(block, &view, 8, INT64_CODES, 0, "the drawn leaves");
        if (!failed) {
            if (view.len / 8 != r->leaf_len) {
                PyErr_Format(PyExc_ValueError, "integers drew %zd leaves, asked for %zd",
                             view.len / 8, r->leaf_len);
                failed = 1;
            }
            else {
                memcpy(r->leaf_buf, view.buf, (size_t)view.len);
            }
            PyBuffer_Release(&view);
        }
        Py_DECREF(block);
        if (failed) {
            return -1;
        }
        r->state[LEAF_POS] = 0;
    }
    long long value = r->leaf_buf[r->state[LEAF_POS]];
    if (value < 0 || value >= r->num_leaves) {
        PyErr_Format(PyExc_ValueError, "drawn leaf %lld outside [0, %lld)", value,
                     r->num_leaves);
        return -1;
    }
    r->state[LEAF_POS]++;
    *leaf = value;
    return 0;
}

/* observer.observe_path(leaf, dummy=dummy) */
static int
observe(Request *r, long long leaf, int dummy)
{
    if (r->observer == NULL) {
        return 0;
    }
    PyObject *name = PyUnicode_FromString("observe_path");
    PyObject *kwnames = Py_BuildValue("(s)", "dummy");
    PyObject *value = PyLong_FromLongLong(leaf);
    PyObject *result = NULL;
    if (name && kwnames && value) {
        PyObject *args[3] = {r->observer, value, dummy ? Py_True : Py_False};
        result = PyObject_VectorcallMethod(name, args, 2, kwnames);
    }
    Py_XDECREF(name);
    Py_XDECREF(kwnames);
    Py_XDECREF(value);
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
    if (r->capacity >= 0 && PyDict_GET_SIZE(r->stash) > r->capacity) {
        raise_repro("StashOverflowError", "stash exceeded its capacity of %lld blocks",
                    r->capacity);
        return -1;
    }
    return 0;
}

/* The map's update: the block's new leaf in, the leaf it sat on out. */
static int
remap(Request *r, PyObject *key, long long id, long long leaf, long long *old)
{
    long long value;
    if (r->map != NULL) {
        value = r->map[id];
        r->map[id] = (int32_t)leaf;
    }
    else {
        PyObject *args[2] = {key, PyLong_FromLongLong(leaf)};
        if (args[1] == NULL) {
            return -1;
        }
        PyObject *result = PyObject_Vectorcall(r->update, args, 2, NULL);
        Py_DECREF(args[1]);
        if (result == NULL) {
            return -1;
        }
        int overflow = 0;
        value = PyLong_Check(result) ? PyLong_AsLongLongAndOverflow(result, &overflow) : -1;
        if (!PyLong_Check(result) || overflow) {
            PyErr_Format(PyExc_ValueError, "update returned %R, not a leaf", result);
            Py_DECREF(result);
            return -1;
        }
        Py_DECREF(result);
    }
    if (value < 0 || value >= r->num_leaves) {
        PyErr_Format(PyExc_ValueError, "block %lld sat on leaf %lld, outside [0, %lld)", id,
                     value, r->num_leaves);
        return -1;
    }
    *old = value;
    return 0;
}

/* After a bin: the occupancy-triggered eviction loop, then the stash
 * observation.  An empty bin (`dummy`) runs the loop's body once, counting
 * no episode and observing no stash. */
static int
after_bin(Request *r, int dummy)
{
    Py_ssize_t occupancy = PyDict_GET_SIZE(r->stash);
    if (dummy || (r->evict && occupancy > r->trigger)) {
        if (!dummy) {
            r->state[EPISODES]++;
        }
        long long dummies = 0;
        while (dummy ? dummies == 0
                     : r->evict && dummies < r->max_dummies && occupancy > r->drain) {
            long long leaf;
            if (draw(r, &leaf) < 0
                || fetch_path(r->stash, &r->tree, r->tags, r->num_tags, leaf) < 0) {
                return -1;
            }
            r->state[DUMMY_READS]++;
            if (observe(r, leaf, 1) < 0 || check_capacity(r) < 0
                || write_back_path(r->stash, &r->tree, leaf) < 0) {
                return -1;
            }
            r->state[PATH_WRITES]++;
            dummies++;
            occupancy = PyDict_GET_SIZE(r->stash);
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
    Py_ssize_t made = 0;
    int result = -1;
    for (; made < k; made++) {
        w->keys[made] = PyLong_FromLongLong(w->ids[made]);
        if (w->keys[made] == NULL) {
            goto done;
        }
    }

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
                goto done;
            }
            leaf = *(*remaps)++;
            planned = leaf >= 0;
        }
        else if (r->lookup != NULL) {
            PyObject *args[2] = {w->keys[p], PyLong_FromLongLong(end_index)};
            if (args[1] == NULL) {
                goto done;
            }
            PyObject *found = PyObject_Vectorcall(r->lookup, args, 2, NULL);
            Py_DECREF(args[1]);
            if (found == NULL) {
                goto done;
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
                    goto done;
                }
                planned = 1;
            }
            Py_DECREF(found);
        }
        if (!planned) {
            if (draw(r, &leaf) < 0) {
                goto done;
            }
        }
        else if (leaf < 0 || leaf >= r->num_leaves) {
            raise_repro("ConfigurationError", "planned leaf %lld outside [0, %lld)", leaf,
                        r->num_leaves);
            goto done;
        }
        w->leaves[p] = leaf;
        int hit = PyDict_Contains(r->stash, w->keys[p]);
        if (hit < 0) {
            goto done;
        }
        w->hit[p] = (char)hit;
        hits += hit;
    }
    r->state[HITS] += hits;

    /* Path ORAM's order per missing block: its update returns the path it
     * sits on, fetched unless an earlier block of the bin read it already;
     * then the stash hits' updates. */
    Py_ssize_t num_read = 0;
    for (int pass = 0; pass < 2; pass++) {
        for (Py_ssize_t p = 0; p < k; p++) {
            if (w->hit[p] != pass) {
                continue;
            }
            long long old;
            if (remap(r, w->keys[p], w->ids[p], w->leaves[p], &old) < 0) {
                goto done;
            }
            if (!pass) {
                Py_ssize_t j = 0;
                while (j < num_read && w->read[j] != old) {
                    j++;
                }
                if (j == num_read) {
                    w->read[num_read++] = old;
                    if (fetch_path(r->stash, &r->tree, r->tags, r->num_tags, old) < 0) {
                        goto done;
                    }
                    r->state[PATH_READS]++;
                    if (observe(r, old, 0) < 0 || check_capacity(r) < 0) {
                        goto done;
                    }
                }
                int present = PyDict_Contains(r->stash, w->keys[p]);
                if (present <= 0) {
                    if (present == 0) {
                        raise_repro("BlockNotFoundError",
                                    "block %lld missing from both stash and its path",
                                    w->ids[p]);
                    }
                    goto done;
                }
            }
            PyObject *value = PyLong_FromLongLong(w->leaves[p]);
            int failed = value == NULL || PyDict_SetItem(r->stash, w->keys[p], value) < 0;
            Py_XDECREF(value);
            if (failed) {
                goto done;
            }
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
                goto done;
            }
        }
        r->state[CURSOR] = end_index + 1;
        result = 0;
        goto done;
    }
    /* Path by path: the first was emptied by its fetch; a later one finds
     * the buckets it shares with an earlier one refilled. */
    for (Py_ssize_t j = 0; j < num_read; j++) {
        if (write_back_path(r->stash, &r->tree, w->read[j]) < 0) {
            goto done;
        }
        r->state[PATH_WRITES]++;
    }
    r->state[CURSOR] = end_index + 1;
    result = after_bin(r, 0);
done:
    for (Py_ssize_t p = 0; p < made; p++) {
        Py_DECREF(w->keys[p]);
    }
    return result;
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
"serve(stash, caps, level_base, node_base, slots, occ, depth, tags, update,\n"
"      ids, size, remaps, by_position, lookup, integers, leaf_buf, limits,\n"
"      held_paths, holding, observer, history, state)\n"
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
"peak and ``history``.  ``update`` is the dense map's int32 entries,\n"
"swapped in place, or a callable ``update(id, leaf) -> old_leaf``.\n"
"``limits`` is ``(num_blocks, num_leaves, capacity (-1: none), evict,\n"
"trigger, drain, max_dummies)``.  ``state`` (int64) holds the cursor, the\n"
"leaf buffer's position and the stash peak, then the logical accesses,\n"
"path reads, path writes, dummy reads, eviction episodes and stash hits\n"
"the request adds; it is current when a check raises.");

static PyObject *
serve_request(PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 22) {
        PyErr_Format(PyExc_TypeError, "serve takes 22 arguments, got %zd", nargs);
        return NULL;
    }
    Request r;
    memset(&r, 0, sizeof(r));
    Py_buffer slots, occ, tags, map, ids, remaps, leaf_buf, state;
    int have_map = 0, have_ids = 0, have_remaps = 0, have_leaf_buf = 0, have_state = 0;
    int have_tags = 0;
    Work w;
    memset(&w, 0, sizeof(w));
    void *work = NULL;
    PyObject *result = NULL;
    if (parse_tree(args, &r.tree, &slots, &occ) < 0) {
        return NULL;
    }
    r.stash = args[0];
    if (buffer_of(args[7], &tags, 4, "il", 0, "tags") < 0) {
        goto done;
    }
    have_tags = 1;
    r.tags = tags.buf;
    r.num_tags = tags.len / 4;

    /* limits: num_blocks, num_leaves, capacity, evict, trigger, drain,
     * max_dummies. */
    PyObject *limits = args[16];
    if (!PyTuple_Check(limits) || PyTuple_GET_SIZE(limits) != 7) {
        PyErr_SetString(PyExc_TypeError, "limits must be a tuple of 7 ints");
        goto done;
    }
    if (bounded(PyTuple_GET_ITEM(limits, 0), 1, (long long)r.num_tags + 1, "num_blocks",
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

    if (PyCallable_Check(args[8])) {
        r.update = args[8];
    }
    else {
        if (buffer_of(args[8], &map, 4, "il", 1, "update") < 0) {
            goto done;
        }
        have_map = 1;
        if (map.len / 4 < r.num_blocks || map.buf != tags.buf) {
            PyErr_SetString(PyExc_ValueError,
                            "update must be the entries tags views, one per block");
            goto done;
        }
        r.map = map.buf;
    }

    Py_ssize_t n = 0;
    if (args[9] != Py_None) {
        if (buffer_of(args[9], &ids, 8, INT64_CODES, 0, "ids") < 0) {
            goto done;
        }
        have_ids = 1;
        n = ids.len / 8;
    }
    long long size, by_position;
    if (bounded(args[10], 1, LLONG_MAX, "size", &size) < 0
        || bounded(args[12], 0, LLONG_MAX, "by_position", &by_position) < 0) {
        goto done;
    }
    const int64_t *next_remap = NULL, *remaps_end = NULL;
    if (args[11] != Py_None) {
        if (buffer_of(args[11], &remaps, 8, INT64_CODES, 0, "remaps") < 0) {
            goto done;
        }
        have_remaps = 1;
        next_remap = remaps.buf;
        remaps_end = next_remap + remaps.len / 8;
    }
    else if (by_position) {
        PyErr_SetString(PyExc_ValueError, "bins by position need the plan's remaps");
        goto done;
    }
    if (args[13] != Py_None && !PyCallable_Check(args[13])) {
        PyErr_SetString(PyExc_TypeError, "lookup must be callable or None");
        goto done;
    }
    r.lookup = args[13] == Py_None ? NULL : args[13];
    if (!PyCallable_Check(args[14])) {
        PyErr_SetString(PyExc_TypeError, "integers must be callable");
        goto done;
    }
    r.integers = args[14];
    if (buffer_of(args[15], &leaf_buf, 8, INT64_CODES, 1, "leaf_buf") < 0) {
        goto done;
    }
    have_leaf_buf = 1;
    r.leaf_buf = leaf_buf.buf;
    r.leaf_len = leaf_buf.len / 8;
    if (!PyList_CheckExact(args[17])) {
        PyErr_SetString(PyExc_TypeError, "held_paths must be a list");
        goto done;
    }
    r.held = args[17];
    r.holding = PyObject_IsTrue(args[18]);
    if (r.holding < 0) {
        goto done;
    }
    r.observer = args[19] == Py_None ? NULL : args[19];
    if (args[20] != Py_None && !PyList_CheckExact(args[20])) {
        PyErr_SetString(PyExc_TypeError, "history must be a list or None");
        goto done;
    }
    r.history = args[20] == Py_None ? NULL : args[20];
    if (buffer_of(args[21], &state, 8, INT64_CODES, 1, "state") < 0) {
        goto done;
    }
    have_state = 1;
    r.state = state.buf;
    if (state.len / 8 != STATE_FIELDS) {
        PyErr_Format(PyExc_ValueError, "state has %zd fields, need %d", state.len / 8,
                     STATE_FIELDS);
        goto done;
    }
    if (r.leaf_len < 1 || r.state[LEAF_POS] < 0 || r.state[LEAF_POS] > r.leaf_len
        || r.state[CURSOR] < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "state needs a cursor >= 0 and a position in a non-empty leaf_buf");
        goto done;
    }

    if (!have_ids) {
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
        work = PyMem_Malloc((size_t)most * (sizeof(PyObject *) + 3 * sizeof(long long) + 1));
        if (work == NULL) {
            PyErr_NoMemory();
            goto done;
        }
        w.keys = work;
        w.ids = (long long *)(w.keys + most);
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
    PyMem_Free(work);
    if (have_state) {
        PyBuffer_Release(&state);
    }
    if (have_leaf_buf) {
        PyBuffer_Release(&leaf_buf);
    }
    if (have_remaps) {
        PyBuffer_Release(&remaps);
    }
    if (have_ids) {
        PyBuffer_Release(&ids);
    }
    if (have_map) {
        PyBuffer_Release(&map);
    }
    if (have_tags) {
        PyBuffer_Release(&tags);
    }
    release(&slots, &occ);
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

static PyMethodDef methods[] = {
    {"serve", (PyCFunction)(void (*)(void))serve, METH_FASTCALL, serve_doc},
    {"fetch", (PyCFunction)(void (*)(void))fetch, METH_FASTCALL, fetch_doc},
    {"write_back", (PyCFunction)(void (*)(void))write_back, METH_FASTCALL, write_back_doc},
    {"held_write_back", (PyCFunction)(void (*)(void))held_write_back, METH_FASTCALL,
     held_write_back_doc},
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
    return PyModule_Create(&module_def);
}
