/* The MLP kernels at one vector width. Not an ordinary header:
   forward_stubs.c includes this file once per width, each time with
   LANES defined (doubles per vector: 2 or 4) and under the
   "#pragma GCC target" that width needs, and calls the copy the running
   CPU supports. Every name defined here is suffixed with the width
   (vec_4, forward_rows_4, ...), so the copies link side by side; the
   #undefs at the end release the short names for the next copy.

   A lane is one output neuron in the forward pass's hidden layers
   (the coded first layer's included), one row in its one-output
   output layer (LANES rows per vector), and one independent gradient
   element or parameter in the backward pass and Adam, so the width
   changes which elements are computed together, never any element's
   arithmetic: every copy is bit-identical to the OCaml references
   (see forward_stubs.c). */

#define K_(name, lanes) name##_##lanes
#define K(name, lanes) K_(name, lanes)
#define vec K(vec, LANES)
#define vec_mask K(vec_mask, LANES)
#define layer K(layer, LANES)
#define width K(width, LANES)
#define relu_vec K(relu_vec, LANES)
#define dot_block K(dot_block, LANES)
#define dot_rows K(dot_rows, LANES)
#define layer_row K(layer_row, LANES)
#define output_rows K(output_rows, LANES)
#define pack_layers K(pack_layers, LANES)
#define sum_block K(sum_block, LANES)
#define sum_rows K(sum_rows, LANES)
#define infer K(infer, LANES)
#define infer_open K(infer_open, LANES)
#define infer_close K(infer_close, LANES)
#define field K(field, LANES)
#define source K(source, LANES)
#define coded_input K(coded_input, LANES)
#define infer_rows K(infer_rows, LANES)
#define forward_rows K(forward_rows, LANES)
#define forward_codes K(forward_codes, LANES)
#define train_step K(train_step, LANES)

typedef double vec __attribute__((vector_size(8 * LANES)));
typedef long long vec_mask __attribute__((vector_size(8 * LANES)));

/* [x] in every lane. */
#if LANES == 2
#define BROADCAST(x) ((vec){ x, x })
#elif LANES == 4
#define BROADCAST(x) ((vec){ x, x, x, x })
#else
#error "LANES must be 2 or 4"
#endif

struct layer {
  long fan_in, fan_out;
  long nvec;        /* output vectors: fan_out rounded up to LANES */
  const vec *w;     /* transposed weights, w[k * nvec + v]; pad lanes 0 */
  const vec *bias;  /* nvec vectors; pad lanes 0 */
  int skip_zeros;   /* every weight of the layer is finite */
};

/* Relu on every lane: v < 0 -> +0.0; -0.0 and NaN pass through, as in
   Network.predict. */
static inline __attribute__((always_inline)) vec relu_vec(vec y)
{
  const vec zero = { 0.0 };
  return (vec)((vec_mask)y & ~(y < zero));
}

/* Output vectors [v0, v0 + nv) of one row: the sum over t ascending of
   xs[t] * rows[t][v] from +0.0, then [+ bias] unless [bias] is NULL,
   then relu if [relu] is set. In the forward pass xs[t] is kept input t
   and rows[t] its row of transposed weights; xs[t] is broadcast to
   every lane as it is read, so callers store one double per term. [nv]
   is a constant at every call site, so the accumulators stay in
   registers. */
static inline __attribute__((always_inline)) void
dot_block(long v0, int nv, const vec *const *rows, const double *xs, long n,
          const vec *bias, int relu, vec *out)
{
  vec acc[BLOCK];
  for (int v = 0; v < nv; v++) acc[v] = (vec){ 0.0 };
  for (long t = 0; t < n; t++) {
    const vec x = BROADCAST(xs[t]);
    const vec *w = rows[t] + v0;
    for (int v = 0; v < nv; v++) acc[v] += x * w[v];
  }
  for (int v = 0; v < nv; v++) {
    vec y = acc[v];
    if (bias) y += bias[v0 + v];
    out[v0 + v] = relu ? relu_vec(y) : y;
  }
}

/* dot_block over output vectors [0, nvec). */
static void dot_rows(long nvec, const vec *const *rows, const double *xs, long n,
                     const vec *bias, int relu, vec *out)
{
  long v0 = 0;
  for (; v0 + BLOCK <= nvec; v0 += BLOCK)
    dot_block(v0, BLOCK, rows, xs, n, bias, relu, out);
  switch (nvec - v0) {
  case 7: dot_block(v0, 7, rows, xs, n, bias, relu, out); break;
  case 6: dot_block(v0, 6, rows, xs, n, bias, relu, out); break;
  case 5: dot_block(v0, 5, rows, xs, n, bias, relu, out); break;
  case 4: dot_block(v0, 4, rows, xs, n, bias, relu, out); break;
  case 3: dot_block(v0, 3, rows, xs, n, bias, relu, out); break;
  case 2: dot_block(v0, 2, rows, xs, n, bias, relu, out); break;
  case 1: dot_block(v0, 1, rows, xs, n, bias, relu, out); break;
  default: break;
  }
}

static void layer_row(const struct layer *l, const double *in, int relu,
                      const vec **wrow, double *xs, vec *out)
{
  const long k_n = l->fan_in, nvec = l->nvec;
  const vec *w = l->w;
  const int keep_all = !l->skip_zeros;
  long n = 0;
  for (long k = 0; k < k_n; k++) {
    const double x = in[k];
    wrow[n] = w + k * nvec;
    xs[n] = x;
    n += (x != 0.0) | keep_all;
  }
  dot_rows(nvec, wrow, xs, n, l->bias, relu, out);
}

/* The output layer of a network with one output, for LANES rows at
   once: lane l of cols[k] is input k of row l, and lane l of the
   result is row l's output. Each lane is the sum over k ascending of
   its input times weight k, from +0.0, then + bias, with no input
   skipped: the arithmetic Network.predict does for that row. The
   layer's one output vector (nvec = 1) holds weight k in lane 0 of
   w[k]. */
static inline __attribute__((always_inline)) vec
output_rows(const struct layer *l, const vec *cols)
{
  const double *w = (const double *)l->w;
  vec acc = { 0.0 };
  for (long k = 0; k < l->fan_in; k++) acc += cols[k] * BROADCAST(w[k * LANES]);
  return acc + BROADCAST(((const double *)l->bias)[0]);
}

/* Transpose and lane-pad every layer's weights and bias from [params]
   (per layer: fan_out x fan_in row-major weights, then fan_out biases)
   into [dst], and record which layers may skip zero inputs. */
static void pack_layers(struct layer *ls, long nlayers, const double *params,
                        vec *dst)
{
  for (long i = 0; i < nlayers; i++) {
    struct layer *l = &ls[i];
    const long k_n = l->fan_in, j_n = l->fan_out, padded = l->nvec * LANES;
    double *w = (double *)dst, *b = (double *)(dst + k_n * l->nvec);
    int finite = 1;
    for (long j = 0; j < k_n * j_n; j++) finite &= isfinite(params[j]) != 0;
    for (long k = 0; k < k_n; k++)
      for (long j = 0; j < padded; j++)
        w[k * padded + j] = j < j_n ? params[j * k_n + k] : 0.0;
    for (long j = 0; j < padded; j++) b[j] = j < j_n ? params[k_n * j_n + j] : 0.0;
    l->w = dst;
    l->bias = dst + k_n * l->nvec;
    l->skip_zeros = finite;
    params += k_n * j_n + j_n;
    dst += (k_n + 1) * l->nvec;
  }
}

/* Output vectors [v0, v0 + nv) of a coded row's first layer: init[v]
   plus terms[t][v] for t ascending, then + bias and relu. init is the
   layer's sum over the shared inputs and terms[t] the precomputed
   product of the row's value of field t and its weights, so each lane
   performs dot_block's additions in dot_block's order (forward_codes).
   [nv] is a constant at every call site, so the accumulators stay in
   registers. */
static inline __attribute__((always_inline)) void
sum_block(long v0, int nv, const vec *init, const vec *const *terms, long n,
          const vec *bias, vec *out)
{
  vec acc[BLOCK];
  for (int v = 0; v < nv; v++) acc[v] = init[v0 + v];
  for (long t = 0; t < n; t++) {
    const vec *p = terms[t] + v0;
    for (int v = 0; v < nv; v++) acc[v] += p[v];
  }
  for (int v = 0; v < nv; v++) out[v0 + v] = relu_vec(acc[v] + bias[v0 + v]);
}

/* sum_block over output vectors [0, nvec). */
static void sum_rows(long nvec, const vec *init, const vec *const *terms, long n,
                     const vec *bias, vec *out)
{
  long v0 = 0;
  for (; v0 + BLOCK <= nvec; v0 += BLOCK) sum_block(v0, BLOCK, init, terms, n, bias, out);
  switch (nvec - v0) {
  case 7: sum_block(v0, 7, init, terms, n, bias, out); break;
  case 6: sum_block(v0, 6, init, terms, n, bias, out); break;
  case 5: sum_block(v0, 5, init, terms, n, bias, out); break;
  case 4: sum_block(v0, 4, init, terms, n, bias, out); break;
  case 3: sum_block(v0, 3, init, terms, n, bias, out); break;
  case 2: sum_block(v0, 2, init, terms, n, bias, out); break;
  case 1: sum_block(v0, 1, init, terms, n, bias, out); break;
  default: break;
  }
}

/* One inference call: the packed network and the scratch memory its
   rows share. */
struct infer {
  struct layer *ls;
  long nlayers;
  vec *mem;           /* one allocation for everything below */
  const vec **wrow;   /* weight rows of the kept inputs of one row */
  vec *act[2];        /* hidden activations, layer i in act[i & 1] */
  double *xs;         /* the kept inputs of one row */
  vec *cols;          /* the output layer's inputs of one group of rows */
  vec *extra;         /* the caller's [extra] vectors */
};

/* Pack [params] into a fresh call's memory, with [extra] vectors more
   for the caller. Returns 0, or -1 when out of memory (nothing then
   stays allocated). */
static int infer_open(struct infer *f, const long *widths, long nlayers,
                      const double *params, long extra)
{
  long wt_vecs = 0, max_in = 0, max_vec = 0;
  for (long i = 0; i < nlayers; i++) {
    const long nvec = (widths[i + 1] + LANES - 1) / LANES;
    wt_vecs += (widths[i] + 1) * nvec;
    if (widths[i] > max_in) max_in = widths[i];
    if (nvec > max_vec) max_vec = nvec;
  }
  const long last_in = widths[nlayers - 1], xs_vecs = (max_in + LANES - 1) / LANES;
  f->ls = malloc(nlayers * sizeof *f->ls);
  f->mem = aligned_alloc(sizeof(vec), (wt_vecs + 2 * max_vec + xs_vecs + last_in + extra)
                                      * sizeof(vec));
  f->wrow = malloc(max_in * sizeof *f->wrow);
  if (f->ls == NULL || f->mem == NULL || f->wrow == NULL) {
    free(f->ls); free(f->mem); free(f->wrow);
    return -1;
  }
  for (long i = 0; i < nlayers; i++) {
    f->ls[i].fan_in = widths[i];
    f->ls[i].fan_out = widths[i + 1];
    f->ls[i].nvec = (widths[i + 1] + LANES - 1) / LANES;
  }
  f->nlayers = nlayers;
  f->act[0] = f->mem + wt_vecs;
  f->act[1] = f->act[0] + max_vec;
  f->xs = (double *)(f->act[1] + max_vec);
  f->cols = f->act[1] + max_vec + xs_vecs;
  f->extra = f->cols + last_in;
  pack_layers(f->ls, nlayers, params, f->mem);
  return 0;
}

static void infer_close(struct infer *f)
{
  free(f->ls); free(f->mem); free(f->wrow);
}

/* Field j of a coded row: bits [shift, shift + log2 n) of the code
   index its n table values, which sit at [values], and, with a hidden
   layer, their products with their first-layer weights, value i's at
   prod + i * nvec. */
struct field {
  long shift;
  uint64_t mask;
  const double *values;
  const vec *prod;
};

/* Where a call's rows come from. Dense: row r is input[r * in_w ...].
   Coded (codes not NULL): row r's inputs are the [nshared] shared
   values, then the value each field of codes[r] selects. With a hidden
   layer, [prefix] holds the first layer's sum over the shared inputs;
   with none, [xrow] receives a row's inputs. */
struct source {
  const double *input;
  long in_w;
  const int32_t *codes;
  long nshared, nfields;
  const double *shared;
  const struct field *fields;
  const vec *prefix;
  double *xrow;
};

/* Coded row r's input to layer [*from]: with a hidden layer, the first
   layer's output (sum_rows, from the prefix and the row's products),
   which is layer 1's input; with none, the row's inputs themselves. */
static const double *coded_input(const struct infer *f, const struct source *s,
                                 long r, long *from)
{
  const uint64_t code = (uint32_t)s->codes[r];
  const struct field *fs = s->fields;
  if (f->nlayers == 1) {
    memcpy(s->xrow, s->shared, s->nshared * sizeof(double));
    for (long j = 0; j < s->nfields; j++)
      s->xrow[s->nshared + j] = fs[j].values[(code >> fs[j].shift) & fs[j].mask];
    *from = 0;
    return s->xrow;
  }
  const struct layer *l0 = &f->ls[0];
  for (long j = 0; j < s->nfields; j++)
    f->wrow[j] = fs[j].prod + (long)((code >> fs[j].shift) & fs[j].mask) * l0->nvec;
  sum_rows(l0->nvec, s->prefix, f->wrow, s->nfields, l0->bias, f->act[0]);
  *from = 1;
  return (const double *)f->act[0];
}

/* Rows [0, rows) of [s] into [output], through a network with one
   output. The output layer runs LANES rows at a time (output_rows):
   each row of a group runs the hidden layers alone, and its last
   hidden activations (its input row, with no hidden layer) are stored
   into lane l of cols; lanes past the last row read zeros and are
   never stored back. */
static void infer_rows(const struct infer *f, const struct source *s, long rows,
                       double *output)
{
  const struct layer *out = &f->ls[f->nlayers - 1];
  for (long r0 = 0; r0 < rows; r0 += LANES) {
    const long nr = rows - r0 < LANES ? rows - r0 : LANES;
    for (long l = 0; l < LANES; l++) {
      double *col = (double *)f->cols + l;
      if (l < nr) {
        long i = 0;
        const double *in = s->codes == NULL ? s->input + (r0 + l) * s->in_w
                                            : coded_input(f, s, r0 + l, &i);
        for (; i < f->nlayers - 1; i++) {
          layer_row(&f->ls[i], in, 1, f->wrow, f->xs, f->act[i & 1]);
          in = (const double *)f->act[i & 1];
        }
        for (long k = 0; k < out->fan_in; k++) col[k * LANES] = in[k];
      } else {
        for (long k = 0; k < out->fan_in; k++) col[k * LANES] = 0.0;
      }
    }
    const vec y = output_rows(out, f->cols);
    for (long l = 0; l < nr; l++) output[r0 + l] = y[l];
  }
}

/* Inference: [input] holds [rows] rows of widths[0] features; [output]
   receives the [rows] outputs of a network whose output layer has one
   output (widths[nlayers] = 1). Returns 0, or -1 when out of memory. */
static int forward_rows(const long *widths, long nlayers, const double *params,
                        const double *input, long rows, double *output)
{
  struct infer f;
  if (infer_open(&f, widths, nlayers, params, 0) != 0) return -1;
  const struct source s = { .input = input, .in_w = widths[0] };
  infer_rows(&f, &s, rows, output);
  infer_close(&f);
  return 0;
}

/* Coded inference: the [rows] rows of [codes], with [nshared] shared
   values and [nfields] fields, field j of bits[j] bits, lowest first,
   whose tables lie back to back in [table]. Once per call, the first
   layer's sum over the shared inputs is taken with dot_rows, every
   input added, and each table value is multiplied by its weights; each
   row then adds its products in field order (coded_input). Outputs
   equal forward_rows' on the rows the codes stand for (see
   forward_stubs.c). Returns 0, or -1 when out of memory. */
static int forward_codes(const long *widths, long nlayers, const double *params,
                         const double *shared, long nshared, const double *table,
                         const long *bits, long nfields, const int32_t *codes,
                         long rows, double *output)
{
  long entries = 0;
  for (long j = 0; j < nfields; j++) entries += 1L << bits[j];
  const long nvec = (widths[1] + LANES - 1) / LANES;
  const long field_vecs = (nfields * (long)sizeof(struct field) + sizeof(vec) - 1) / sizeof(vec);
  struct infer f;
  if (infer_open(&f, widths, nlayers, params,
                 (1 + entries) * nvec + (widths[0] + LANES - 1) / LANES + field_vecs) != 0)
    return -1;
  vec *prefix = f.extra, *prod = f.extra + nvec;
  struct field *fields = (struct field *)(prod + entries * nvec);
  for (long j = 0, shift = 0, e = 0; j < nfields; j++) {
    fields[j] = (struct field){ .shift = shift, .mask = ((uint64_t)1 << bits[j]) - 1,
                                .values = table + e, .prod = prod + e * nvec };
    shift += bits[j];
    e += 1L << bits[j];
  }
  const struct source s = {
    .codes = codes, .nshared = nshared, .nfields = nfields, .shared = shared,
    .fields = fields, .prefix = prefix,
    .xrow = (double *)(prod + entries * nvec + field_vecs) };
  if (nlayers > 1) {
    const struct layer *l0 = &f.ls[0];
    for (long k = 0; k < nshared; k++) f.wrow[k] = l0->w + k * nvec;
    dot_rows(nvec, f.wrow, shared, nshared, NULL, 0, prefix);
    for (long e = 0, j = 0; j < nfields; j++) {
      const vec *w = l0->w + (nshared + j) * nvec;
      for (long i = 0; i <= (long)fields[j].mask; i++, e++) {
        const vec x = BROADCAST(table[e]);
        for (long v = 0; v < nvec; v++) prod[e * nvec + v] = x * w[v];
      }
    }
  }
  infer_rows(&f, &s, rows, output);
  infer_close(&f);
  return 0;
}

/* Training. The forward pass runs one row at a time through every
   layer (layer_row) and keeps each layer's activations; its outputs
   equal forward_rows' bit for bit, as both equal the OCaml reference.
   The backward pass reuses dot_rows without bias or relu: each
   gradient element is a sum of products accumulated in one SIMD lane,
   from +0.0, over a list of kept terms in a fixed order. Activations
   and deltas are stored in rows of lane-padded vectors, so every
   product reads aligned vectors; pad lanes are never read back. */

/* Width i of the network, input first: its lane-padded vector count,
   its activations (rows x nv vectors) and, for hidden widths, layer i's
   weights row-major and lane-padded, which the delta passed down from
   width i + 1 reads. */
struct width {
  long nv;
  vec *act;
  vec *wp;
};

/* One Adam step on [rows] rows of [x] with targets [y]; [hyper] is
   { lr, beta1, beta2, epsilon, 1 - beta1^step, 1 - beta2^step }.
   Stores the summed squared error before the update in [*loss] and
   returns 0, or returns -1 when out of memory, the network unchanged.
   The per-element order is listed at isaac_mlp_train_batch. */
static int train_step(const long *widths, long nlayers, double *params,
                      double *grad, double *m, double *v, const double *x,
                      long rows, const double *y, const double *hyper,
                      double *loss)
{
  long params_len = 0, wt_vecs = 0, wp_vecs = 0, act_vecs = 0;
  long max_width = rows, max_vec = 0;
  for (long i = 0; i <= nlayers; i++) {
    const long w = widths[i];
    const long nvec = (w + LANES - 1) / LANES;
    act_vecs += nvec;
    if (w > max_width) max_width = w;
    if (nvec > max_vec) max_vec = nvec;
    if (i < nlayers) {
      const long j_n = widths[i + 1];
      params_len += w * j_n + j_n;
      wt_vecs += (w + 1) * ((j_n + LANES - 1) / LANES);
      if (i > 0) wp_vecs += j_n * nvec;
    }
  }
  const long in_w = widths[0];

  /* Vectors: every width's activations and padded weights; the forward
     pass's transposed weights; two delta buffers; one gradient row; the
     kept terms of one sum. */
  const long vecs = rows * act_vecs + wp_vecs + wt_vecs + 2 * rows * max_vec
                    + max_vec + (max_width + LANES - 1) / LANES;
  struct layer *ls = malloc(nlayers * sizeof *ls);
  struct width *ws = malloc((nlayers + 1) * sizeof *ws);
  const vec **rowp = malloc(max_width * sizeof *rowp);
  vec *buf = aligned_alloc(sizeof(vec), vecs * sizeof(vec));
  if (ls == NULL || ws == NULL || rowp == NULL || buf == NULL) {
    free(ls); free(ws); free(rowp); free(buf);
    return -1;
  }
  vec *next = buf;
  for (long i = 0; i <= nlayers; i++) {
    ws[i].nv = (widths[i] + LANES - 1) / LANES;
    ws[i].act = next;
    next += rows * ws[i].nv;
    ws[i].wp = NULL;
    if (i > 0 && i < nlayers) {
      ws[i].wp = next;
      next += widths[i + 1] * ws[i].nv;
    }
  }
  for (long i = 0; i < nlayers; i++) {
    ls[i].fan_in = widths[i];
    ls[i].fan_out = widths[i + 1];
    ls[i].nvec = ws[i + 1].nv;
  }
  vec *wt = next; next += wt_vecs;
  vec *delta = next; next += rows * max_vec;
  vec *down = next; next += rows * max_vec;
  vec *grow = next; next += max_vec;
  double *xs = (double *)next;
  const double lr = hyper[0], beta1 = hyper[1], beta2 = hyper[2];
  const double eps = hyper[3], bc1 = hyper[4], bc2 = hyper[5];

  /* Forward, keeping activations. The input is copied into lane-padded
     rows (pad lanes zero) so the backward pass reads it as vectors. */
  pack_layers(ls, nlayers, params, wt);
  for (long r = 0; r < rows; r++) {
    double *in = (double *)(ws[0].act + r * ws[0].nv);
    memcpy(in, x + r * in_w, in_w * sizeof(double));
    for (long k = in_w; k < ws[0].nv * LANES; k++) in[k] = 0.0;
    for (long i = 0; i < nlayers; i++) {
      vec *out = ws[i + 1].act + r * ws[i + 1].nv;
      layer_row(&ls[i], in, i < nlayers - 1, rowp, xs, out);
      in = (double *)out;
    }
  }

  /* Output delta and loss. */
  double sse = 0.0;
  for (long r = 0; r < rows; r++) {
    const double d = ((const double *)(ws[nlayers].act + r * ws[nlayers].nv))[0] - y[r];
    sse += d * d;
    ((double *)(delta + r * ws[nlayers].nv))[0] = 2.0 * d / (double)rows;
  }

  /* Row-major, lane-padded weights for the delta passed down. */
  {
    const double *p = params;
    for (long i = 0; i < nlayers; i++) {
      const long k_n = ls[i].fan_in, j_n = ls[i].fan_out;
      if (ws[i].wp != NULL)
        for (long j = 0; j < j_n; j++) {
          double *row = (double *)(ws[i].wp + j * ws[i].nv);
          memcpy(row, p + j * k_n, k_n * sizeof(double));
          for (long k = k_n; k < ws[i].nv * LANES; k++) row[k] = 0.0;
        }
      p += k_n * j_n + j_n;
    }
  }

  /* Backward, last layer first. */
  memset(grad, 0, params_len * sizeof(double));
  long b0 = params_len;
  for (long i = nlayers - 1; i >= 0; i--) {
    const long k_n = ls[i].fan_in, j_n = ls[i].fan_out;
    const long nin = ws[i].nv, nout = ws[i + 1].nv;
    const long bias = b0 - j_n, w0 = bias - k_n * j_n;
    const double *d = (const double *)delta;
    for (long r = 0; r < rows; r++)
      for (long j = 0; j < j_n; j++)
        grad[bias + j] += d[r * nout * LANES + j];
    for (long j = 0; j < j_n; j++) {
      long n = 0;
      for (long r = 0; r < rows; r++) {
        const double dv = d[r * nout * LANES + j];
        rowp[n] = ws[i].act + r * nin;
        xs[n] = dv;
        n += dv != 0.0;
      }
      dot_rows(nin, rowp, xs, n, NULL, 0, grow);
      memcpy(grad + w0 + j * k_n, grow, k_n * sizeof(double));
    }
    if (i > 0) {
      for (long r = 0; r < rows; r++) {
        long n = 0;
        for (long j = 0; j < j_n; j++) {
          const double dv = d[r * nout * LANES + j];
          rowp[n] = ws[i].wp + j * nin;
          xs[n] = dv;
          n += dv != 0.0;
        }
        vec *dr = down + r * nin;
        dot_rows(nin, rowp, xs, n, NULL, 0, dr);
        /* Layer i-1's output is relu(z), which is <= 0 exactly where
           z is (NaN fails both), so the activation masks the delta. */
        const double *a = (const double *)(ws[i].act + r * nin);
        double *dd = (double *)dr;
        for (long k = 0; k < k_n; k++)
          if (a[k] <= 0.0) dd[k] = 0.0;
      }
      vec *t = delta; delta = down; down = t;
    }
    b0 = w0;
  }

  /* Adam. */
  for (long k = 0; k < params_len; k++) {
    const double g = grad[k];
    const double mk = beta1 * m[k] + (1.0 - beta1) * g;
    const double vk = beta2 * v[k] + (1.0 - beta2) * g * g;
    m[k] = mk;
    v[k] = vk;
    params[k] = params[k] - lr * (mk / bc1) / (sqrt(vk / bc2) + eps);
  }

  free(ls); free(ws); free(rowp); free(buf);
  *loss = sse;
  return 0;
}

#undef BROADCAST
#undef vec
#undef vec_mask
#undef relu_vec
#undef layer
#undef width
#undef dot_block
#undef dot_rows
#undef layer_row
#undef output_rows
#undef pack_layers
#undef sum_block
#undef sum_rows
#undef infer
#undef infer_open
#undef infer_close
#undef field
#undef source
#undef coded_input
#undef infer_rows
#undef forward_rows
#undef forward_codes
#undef train_step
#undef K
#undef K_
