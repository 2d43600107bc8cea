/*
 * The path read and the greedy write-backs of the array engine, over the
 * engine's own objects.
 *
 * Path ORAM (Stefanov et al., CCS'13) reads a path into the stash and
 * writes it back by the eviction rule, occupancy aware: every stash block
 * whose leaf shares a level with the path may go back onto it, as deep as
 * that prefix allows, into the free slots each bucket actually has.
 * LAORAM reads several paths before writing them back, so a later
 * write-back finds buckets an earlier one refilled; a held training step
 * writes its read paths back at its commit as one subtree.
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
 * the fetch reads as the reference tree does (tests/oracle/tree.py).
 * Every operand is checked before the first write, so a call either
 * raises TypeError / ValueError and leaves the stash and the tree as they
 * were, or writes only slots and occupancies of the path (or subtree) it
 * was given.  Stash ids and leaves must be exact ints: deleting one then
 * runs no Python code, so nothing can re-enter the kernel or change the
 * dict while it holds the GIL and one module-level scratch buffer.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Leaves are held in a long long, and 1 << depth must fit one. */
#define MAX_DEPTH 62
/* Occupancies are uint8. */
#define MAX_CAPACITY 255

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

/* One scratch buffer for every call, grown geometrically and never shrunk:
 * a steady-state call allocates nothing. */
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
    PyObject *stash = args[0];
    int depth = tree.depth;
    long long leaf;
    if (bounded(args[7], 0, 1LL << depth, "leaf", &leaf) < 0 || check_path(&tree, leaf) < 0) {
        goto fail;
    }
    Py_ssize_t n = PyDict_GET_SIZE(stash);
    if (n == 0) {
        release(&slots, &occ);
        Py_RETURN_NONE;
    }
    /* In stash order, then grouped by bit length (a counting sort), then
     * the pool: three arrays of n items. */
    Item *items = reserve(3 * (size_t)n * sizeof(Item));
    if (items == NULL) {
        goto fail;
    }
    Item *grouped = items + n;
    Item *pool = grouped + n;
    Py_ssize_t start[MAX_DEPTH + 2] = {0};
    Py_ssize_t pos = 0, i = 0;
    PyObject *key, *value;
    while (PyDict_Next(stash, &pos, &key, &value)) {
        long long resident;
        if (stash_entry(key, value, depth, &items[i], &resident) < 0) {
            goto fail;
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
        long long take = tree.caps[level] - tree.occ[tree.node_base[level] + node];
        if (take > top) {
            take = top;
        }
        if (take > 0 && place(stash, &tree, level, node, pool, &top, take) < 0) {
            goto fail;
        }
    }
    release(&slots, &occ);
    Py_RETURN_NONE;
fail:
    release(&slots, &occ);
    return NULL;
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
    PyObject *stash = args[0];
    int depth = tree.depth;
    PyObject *leaves = PySequence_Fast(args[7], "leaves must be a sequence");
    if (leaves == NULL) {
        goto fail;
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
        release(&slots, &occ);
        Py_RETURN_NONE;
    }
    qsort(paths, (size_t)num_paths, sizeof(long long), ascending);
    Py_ssize_t last = 0;
    for (Py_ssize_t i = 1; i < num_paths; i++) {
        if (paths[i] != paths[last]) {
            paths[++last] = paths[i];
        }
    }
    if (check_path(&tree, paths[last]) < 0) {
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
            long long take = tree.caps[level] - tree.occ[tree.node_base[level] + node];
            if (take > top - first) {
                take = top - first;
            }
            if (take > 0 && place(stash, &tree, level, node, pool, &top, take) < 0) {
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
    release(&slots, &occ);
    Py_RETURN_NONE;
fail:
    Py_XDECREF(leaves);
    release(&slots, &occ);
    return NULL;
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
    int depth = tree.depth;
    const int32_t *labels = tags.buf;
    Py_ssize_t num_tags = tags.len / 4;
    long long leaf;
    if (bounded(args[8], 0, 1LL << depth, "leaf", &leaf) < 0 || check_path(&tree, leaf) < 0) {
        goto fail;
    }
    /* Every occupancy and id is checked before the first write.  The
     * inserts check each id again: a stash key's comparison could run
     * Python code that writes the buffers, so only what is read is used. */
    long long used[MAX_DEPTH + 1];
    for (int pass = 0; pass < 2; pass++) {
        for (int level = 0; level <= depth; level++) {
            long long node = leaf >> (depth - level);
            long long bucket = tree.node_base[level] + node;
            long long first = tree.level_base[level] + node * tree.caps[level];
            if (pass == 0) {
                used[level] = tree.occ[bucket];
                if (used[level] > tree.caps[level]) {
                    PyErr_Format(PyExc_ValueError,
                                 "bucket %lld holds %lld blocks, its capacity is %lld", bucket,
                                 used[level], tree.caps[level]);
                    goto fail;
                }
            }
            for (long long slot = first; slot < first + used[level]; slot++) {
                int32_t id = tree.slots[slot];
                if (id < 0 || id >= num_tags) {
                    PyErr_Format(PyExc_ValueError,
                                 "slot %lld holds id %d, outside the %zd tags", slot, (int)id,
                                 num_tags);
                    goto fail;
                }
                if (pass == 0) {
                    continue;
                }
                PyObject *key = PyLong_FromLong(id);
                PyObject *value = key ? PyLong_FromLong(labels[id]) : NULL;
                int failed = value == NULL || PyDict_SetItem(args[0], key, value) < 0;
                Py_XDECREF(key);
                Py_XDECREF(value);
                if (failed) {
                    goto fail;
                }
                tree.slots[slot] = -1;
            }
            if (pass == 1 && used[level]) {
                tree.occ[bucket] = 0;
            }
        }
    }
    PyBuffer_Release(&tags);
    release(&slots, &occ);
    Py_RETURN_NONE;
fail:
    PyBuffer_Release(&tags);
    release(&slots, &occ);
    return NULL;
}

static PyMethodDef methods[] = {
    {"fetch", (PyCFunction)(void (*)(void))fetch, METH_FASTCALL, fetch_doc},
    {"write_back", (PyCFunction)(void (*)(void))write_back, METH_FASTCALL, write_back_doc},
    {"held_write_back", (PyCFunction)(void (*)(void))held_write_back, METH_FASTCALL,
     held_write_back_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT,
    "_write_back",
    "The path read and greedy write-back kernels of the array engine (see "
    "repro.oram.write_back).",
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
