/* Compiled kernels for the "native" backend (docs/backends.md).
 *
 * This is the whole native surface: the two kernel slots the native
 * backend fills on top of the fast backend, behind the same
 * bit-identity contract as the pure-Python backends.
 *
 *   1. binary_kernel: evaluates one frontend binary operation and its
 *      Section 2.3 transfer function in a single call (mirroring
 *      repro.pytrace.session._BIN_EVAL/_CMP_EVAL composed with
 *      repro.shadow.transfer.BINARY).
 *   2. dinic: Dinic BFS-level + blocking-flow over the flat
 *      forward-star arrays of repro.graph.maxflow.ResidualNetwork
 *      (arc 2i forward, 2i+1 reverse, partner = arc ^ 1).  The carried
 *      warm-start flow is applied on the Python side; the kernel
 *      receives the pre-seeded capacities and the carried value.
 *
 * Every kernel either returns the exact value the pure-Python code
 * would produce or returns None ("fall back to Python"), never an
 * approximation: inputs outside the machine-word fast path (values or
 * masks over 64 bits, widths over 64, capacities over int64) punt to
 * the caller.  The Python callers count those punts as
 * shadow.native.fallbacks / maxflow.native.fallbacks.
 *
 * No dependencies beyond the CPython C API; one translation unit.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>

/* Bumped when a kernel's signature or semantics change; repro._native
 * refuses (degrades to "unavailable") when a stale .so reports a
 * different ABI than the Python side expects. */
#define KERNEL_ABI 1

/* ------------------------------------------------------------------ */
/* Conversion helpers                                                  */

/* Convert obj to uint64.  Returns 0 on success; 1 when the value does
 * not fit (error cleared -- caller should fall back to Python); -1 on
 * an unexpected error (exception set). */
static int
as_u64(PyObject *obj, uint64_t *out)
{
    unsigned long long v = PyLong_AsUnsignedLongLong(obj);
    if (v == (unsigned long long)-1 && PyErr_Occurred()) {
        if (PyErr_ExceptionMatches(PyExc_OverflowError)
                || PyErr_ExceptionMatches(PyExc_TypeError)) {
            PyErr_Clear();
            return 1;
        }
        return -1;
    }
    *out = (uint64_t)v;
    return 0;
}

/* Convert obj to int64 (negatives allowed).  Same protocol as as_u64. */
static int
as_i64(PyObject *obj, int64_t *out)
{
    long long v = PyLong_AsLongLong(obj);
    if (v == -1 && PyErr_Occurred()) {
        if (PyErr_ExceptionMatches(PyExc_OverflowError)
                || PyErr_ExceptionMatches(PyExc_TypeError)) {
            PyErr_Clear();
            return 1;
        }
        return -1;
    }
    *out = (int64_t)v;
    return 0;
}

/* ------------------------------------------------------------------ */
/* binary_kernel: fused evaluate + transfer for one binary operation   */

/* Op ids; the OP_IDS module dict is the Python-visible name -> id map,
 * so the two sides cannot drift. */
enum {
    OP_ADD = 0, OP_SUB, OP_MUL, OP_DIV, OP_MOD,
    OP_AND, OP_OR, OP_XOR, OP_SHL, OP_SHR,
    OP_EQ = 16, OP_NE, OP_ULT, OP_ULE, OP_UGT, OP_UGE
};

static const struct { const char *name; int id; } op_table[] = {
    {"add", OP_ADD}, {"sub", OP_SUB}, {"mul", OP_MUL}, {"div", OP_DIV},
    {"mod", OP_MOD}, {"and", OP_AND}, {"or", OP_OR}, {"xor", OP_XOR},
    {"shl", OP_SHL}, {"shr", OP_SHR},
    {"eq", OP_EQ}, {"ne", OP_NE}, {"ult", OP_ULT}, {"ule", OP_ULE},
    {"ugt", OP_UGT}, {"uge", OP_UGE},
};

/* spread_left(mask, width) for machine words: all bits at or above the
 * lowest set bit, within width (bitmask.spread_left). */
static uint64_t
spread_left_u64(uint64_t mask, uint64_t w)
{
    int low;
    if (mask == 0)
        return 0;
    low = __builtin_ctzll(mask);
    return w & ~(((uint64_t)1 << low) - 1);
}

static PyObject *
kern_binary_kernel(PyObject *self, PyObject *args)
{
    int op;
    PyObject *avo, *amo, *bvo, *bmo;
    Py_ssize_t width;
    uint64_t av, am, bv, bm, w, value, mask;
    int rc;
    if (!PyArg_ParseTuple(args, "iOOOOn:binary_kernel",
                          &op, &avo, &amo, &bvo, &bmo, &width))
        return NULL;
    if ((rc = as_u64(avo, &av)) != 0) goto punt;
    if ((rc = as_u64(amo, &am)) != 0) goto punt;
    if ((rc = as_u64(bvo, &bv)) != 0) goto punt;
    if ((rc = as_u64(bmo, &bm)) != 0) goto punt;

    if (op >= OP_EQ) {
        /* Comparisons: 1-bit result, width-independent transfer
         * (transfer_compare). */
        switch (op) {
        case OP_EQ:  value = (av == bv); break;
        case OP_NE:  value = (av != bv); break;
        case OP_ULT: value = (av < bv);  break;
        case OP_ULE: value = (av <= bv); break;
        case OP_UGT: value = (av > bv);  break;
        case OP_UGE: value = (av >= bv); break;
        default: goto unknown;
        }
        mask = (am | bm) ? 1 : 0;
        return Py_BuildValue("(KK)", (unsigned long long)value,
                             (unsigned long long)mask);
    }

    if (width < 0 || width > 64)
        Py_RETURN_NONE;  /* wide result: pure-Python transfer territory */
    w = (width == 64) ? UINT64_MAX
                      : (((uint64_t)1 << width) - 1);

    /* Values: _BIN_EVAL semantics.  All arithmetic is exact mod 2^64
     * and the result width divides 64, so wrapping matches Python's
     * arbitrary-precision result under `& w`. */
    switch (op) {
    case OP_ADD: value = (av + bv) & w; break;
    case OP_SUB: value = (av - bv) & w; break;
    case OP_MUL: value = (av * bv) & w; break;
    case OP_DIV:
        if (bv == 0)
            Py_RETURN_NONE;  /* Python raises ZeroDivisionError */
        value = (av / bv) & w;
        break;
    case OP_MOD:
        if (bv == 0)
            Py_RETURN_NONE;
        value = (av % bv) & w;
        break;
    case OP_AND: value = av & bv; break;         /* unmasked, like _BIN_EVAL */
    case OP_OR:  value = (av | bv) & w; break;
    case OP_XOR: value = (av ^ bv) & w; break;
    case OP_SHL: value = (bv >= 64) ? 0 : ((av << bv) & w); break;
    case OP_SHR: value = (bv >= 64) ? 0 : (av >> bv); break;  /* unmasked */
    default: goto unknown;
    }

    /* Masks: the Section 2.3 transfer functions (shadow.transfer),
     * already truncated to the result width like _binary_op_fast's
     * `& w`. */
    switch (op) {
    case OP_ADD: case OP_SUB: case OP_MUL:
        mask = spread_left_u64(am | bm, w);
        break;
    case OP_DIV: case OP_MOD:
        mask = (am | bm) ? w : 0;
        break;
    case OP_AND:
        mask = ((am & (bv | bm)) | (bm & (av | am))) & w;
        break;
    case OP_OR:
        mask = ((am & (~bv | bm)) | (bm & (~av | am))) & w;
        break;
    case OP_XOR:
        mask = (am | bm) & w;
        break;
    case OP_SHL:
        if (bm)
            mask = (am == 0 && av == 0) ? 0 : w;
        else if (bv < 64)
            mask = (am << bv) & w;
        else if (am == 0)
            mask = 0;
        else
            /* Huge public shift of a secret mask: transfer_shl really
             * materialises `am << bv`, so take the Python path to keep
             * its exact behaviour (including a possible MemoryError). */
            Py_RETURN_NONE;
        break;
    case OP_SHR:
        if (bm)
            mask = (am == 0 && av == 0) ? 0 : w;
        else
            mask = ((bv >= 64) ? 0 : (am >> bv)) & w;
        break;
    default: goto unknown;
    }
    return Py_BuildValue("(KK)", (unsigned long long)value,
                         (unsigned long long)mask);

punt:
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
unknown:
    return PyErr_Format(PyExc_ValueError, "unknown op id %d", op);
}

/* ------------------------------------------------------------------ */
/* Dinic max-flow over ResidualNetwork's flat arrays                   */

/* One growable record of augmenting-path lengths (only filled when the
 * caller asked to record them for the metrics histogram). */
typedef struct {
    int64_t *data;
    Py_ssize_t len, alloc;
} lenbuf;

static int
lenbuf_push(lenbuf *buf, int64_t v)
{
    if (buf->len == buf->alloc) {
        Py_ssize_t alloc = buf->alloc ? buf->alloc * 2 : 256;
        int64_t *data = PyMem_Realloc(buf->data, alloc * sizeof(int64_t));
        if (data == NULL)
            return -1;
        buf->data = data;
        buf->alloc = alloc;
    }
    buf->data[buf->len++] = v;
    return 0;
}

/* Convert a Python list of ints to a fresh int64 array; NULL + rc=1 on
 * "does not fit" (caller falls back to Python), NULL + rc=-1 on error. */
static int64_t *
list_to_i64(PyObject *list, Py_ssize_t expect_len, int *rc)
{
    Py_ssize_t n = PyList_GET_SIZE(list), i;
    int64_t *out;
    if (expect_len >= 0 && n != expect_len) {
        *rc = 1;
        return NULL;
    }
    out = PyMem_Malloc((n ? n : 1) * sizeof(int64_t));
    if (out == NULL) {
        PyErr_NoMemory();
        *rc = -1;
        return NULL;
    }
    for (i = 0; i < n; i++) {
        int r = as_i64(PyList_GET_ITEM(list, i), &out[i]);
        if (r != 0) {
            PyMem_Free(out);
            *rc = r;
            return NULL;
        }
    }
    *rc = 0;
    return out;
}

static PyObject *
kern_dinic(PyObject *self, PyObject *args)
{
    Py_ssize_t n, s, t, m2, i;
    PyObject *first_l, *nxt_l, *head_l, *cap_l, *carried_o, *inf_o;
    int record_paths, rc;
    int64_t *first = NULL, *nxt = NULL, *head = NULL, *cap = NULL;
    int64_t *level = NULL, *it = NULL, *q = NULL, *path = NULL;
    int64_t carried, inf, bfs_phases = 0, aug_paths = 0;
    __int128 total;
    lenbuf lengths = {NULL, 0, 0};
    PyObject *result = NULL, *lengths_list = NULL;

    if (!PyArg_ParseTuple(args, "nnnO!O!O!O!OOi:dinic",
                          &n, &s, &t,
                          &PyList_Type, &first_l, &PyList_Type, &nxt_l,
                          &PyList_Type, &head_l, &PyList_Type, &cap_l,
                          &carried_o, &inf_o, &record_paths))
        return NULL;
    if ((rc = as_i64(carried_o, &carried)) != 0) goto punt;
    if ((rc = as_i64(inf_o, &inf)) != 0) goto punt;
    m2 = PyList_GET_SIZE(cap_l);
    first = list_to_i64(first_l, n, &rc);
    if (first == NULL) goto punt;
    nxt = list_to_i64(nxt_l, m2, &rc);
    if (nxt == NULL) goto punt;
    head = list_to_i64(head_l, m2, &rc);
    if (head == NULL) goto punt;
    cap = list_to_i64(cap_l, m2, &rc);
    if (cap == NULL) goto punt;
    if (n <= 0 || s < 0 || s >= n || t < 0 || t >= n || s == t) {
        rc = 1;
        goto punt;
    }
    level = PyMem_Malloc(n * sizeof(int64_t));
    it = PyMem_Malloc(n * sizeof(int64_t));
    q = PyMem_Malloc(n * sizeof(int64_t));
    path = PyMem_Malloc((n + 1) * sizeof(int64_t));
    if (level == NULL || it == NULL || q == NULL || path == NULL) {
        PyErr_NoMemory();
        rc = -1;
        goto punt;
    }

    total = carried;
    Py_BEGIN_ALLOW_THREADS
    for (;;) {
        /* BFS: level graph from s (FIFO order mirrors the deque). */
        Py_ssize_t qh = 0, qt = 0;
        for (i = 0; i < n; i++)
            level[i] = -1;
        level[s] = 0;
        q[qt++] = s;
        while (qh < qt) {
            int64_t u = q[qh++];
            int64_t a = first[u];
            while (a != -1) {
                int64_t v = head[a];
                if (cap[a] > 0 && level[v] < 0) {
                    level[v] = level[u] + 1;
                    q[qt++] = v;
                }
                a = nxt[a];
            }
        }
        if (level[t] < 0)
            break;
        bfs_phases++;
        for (i = 0; i < n; i++)
            it[i] = first[i];
        /* Blocking flow: explicit-stack DFS, the exact retreat and
         * dead-end logic of maxflow.dinic_max_flow.blocking_flow. */
        {
            Py_ssize_t path_len = 0;
            int64_t u = s;
            int done = 0;
            while (!done) {
                if (u == t) {
                    int64_t bottleneck = INT64_MAX;
                    Py_ssize_t idx;
                    for (idx = 0; idx < path_len; idx++)
                        if (cap[path[idx]] < bottleneck)
                            bottleneck = cap[path[idx]];
                    for (idx = 0; idx < path_len; idx++) {
                        cap[path[idx]] -= bottleneck;
                        cap[path[idx] ^ 1] += bottleneck;
                    }
                    total += bottleneck;
                    aug_paths++;
                    if (record_paths) {
                        int push_rc;
                        Py_BLOCK_THREADS
                        push_rc = lenbuf_push(&lengths, path_len);
                        Py_UNBLOCK_THREADS
                        if (push_rc < 0) {
                            Py_BLOCK_THREADS
                            rc = -1;
                            goto punt;
                        }
                    }
                    /* Retreat to the first saturated arc on the path. */
                    for (idx = 0; idx < path_len; idx++) {
                        if (cap[path[idx]] == 0) {
                            path_len = idx;
                            break;
                        }
                    }
                    u = path_len ? head[path[path_len - 1]] : s;
                    continue;
                }
                {
                    int64_t a = it[u];
                    int advanced = 0;
                    while (a != -1) {
                        int64_t v = head[a];
                        if (cap[a] > 0 && level[v] == level[u] + 1) {
                            it[u] = a;
                            path[path_len++] = a;
                            u = v;
                            advanced = 1;
                            break;
                        }
                        a = nxt[a];
                    }
                    if (advanced)
                        continue;
                    it[u] = -1;
                    level[u] = -1;
                    if (path_len == 0) {
                        done = 1;
                        continue;
                    }
                    a = path[--path_len];
                    u = head[a ^ 1];
                    it[u] = nxt[it[u]];
                }
            }
        }
        if (total >= (__int128)inf) {
            total = inf;
            break;
        }
    }
    Py_END_ALLOW_THREADS

    /* Write the saturated capacities back into the Python list, so the
     * ResidualNetwork reflects the solve for min-cut extraction. */
    for (i = 0; i < m2; i++) {
        PyObject *v = PyLong_FromLongLong((long long)cap[i]);
        if (v == NULL) {
            rc = -1;
            goto punt;
        }
        if (PyList_SetItem(cap_l, i, v) < 0) {  /* steals v */
            rc = -1;
            goto punt;
        }
    }
    if (record_paths) {
        lengths_list = PyList_New(lengths.len);
        if (lengths_list == NULL) {
            rc = -1;
            goto punt;
        }
        for (i = 0; i < lengths.len; i++) {
            PyObject *v = PyLong_FromLongLong((long long)lengths.data[i]);
            if (v == NULL) {
                rc = -1;
                goto punt;
            }
            PyList_SET_ITEM(lengths_list, i, v);
        }
    } else {
        lengths_list = Py_None;
        Py_INCREF(lengths_list);
    }
    result = Py_BuildValue("(LLLN)", (long long)total,
                           (long long)bfs_phases, (long long)aug_paths,
                           lengths_list);
    lengths_list = NULL;  /* reference given away (or freed on error) */
    rc = 0;

punt:
    PyMem_Free(first);
    PyMem_Free(nxt);
    PyMem_Free(head);
    PyMem_Free(cap);
    PyMem_Free(level);
    PyMem_Free(it);
    PyMem_Free(q);
    PyMem_Free(path);
    PyMem_Free(lengths.data);
    if (rc < 0) {
        Py_XDECREF(lengths_list);
        Py_XDECREF(result);
        return NULL;
    }
    if (rc > 0)
        Py_RETURN_NONE;  /* inputs outside int64: fall back to Python */
    return result;
}

/* ------------------------------------------------------------------ */
/* Module                                                              */

static PyMethodDef kernel_methods[] = {
    {"binary_kernel", kern_binary_kernel, METH_VARARGS,
     "Fused (value, mask) for one binary op, or None to fall back."},
    {"dinic", kern_dinic, METH_VARARGS,
     "Dinic max-flow over forward-star arrays, or None to fall back."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT,
    "repro._native._kernels",
    "Compiled kernels for the native backend (see repro._native).",
    -1,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    PyObject *module, *op_ids;
    size_t i;
    module = PyModule_Create(&kernels_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddIntConstant(module, "KERNEL_ABI", KERNEL_ABI) < 0)
        return NULL;
    op_ids = PyDict_New();
    if (op_ids == NULL)
        return NULL;
    for (i = 0; i < sizeof(op_table) / sizeof(op_table[0]); i++) {
        PyObject *v = PyLong_FromLong(op_table[i].id);
        int r = v == NULL ? -1 : PyDict_SetItemString(op_ids,
                                                      op_table[i].name, v);
        Py_XDECREF(v);
        if (r < 0)
            return NULL;
    }
    if (PyModule_AddObject(module, "OP_IDS", op_ids) < 0) {
        Py_DECREF(op_ids);
        return NULL;
    }
    return module;
}
