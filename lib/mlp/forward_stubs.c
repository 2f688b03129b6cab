/* The kernels behind Mlp.Network.forward_batch (batched MLP inference
   for the planning hot path, DESIGN.md "Planning hot path") and
   Mlp.Network.train_batch (one minibatch step of training, DESIGN.md
   "MLP storage and training"). Both read the network's own parameter
   vector in place (per layer: fan_out x fan_in row-major weights, then
   fan_out biases); training also updates it, the gradient and Adam's
   two moments, vectors of the same layout, in place.

   Float contract of the forward pass. Every output element is the
   ascending-k single-accumulator dot product, then [+ bias], then
   [if v < 0 then 0 else v] on hidden layers, exactly as the OCaml
   reference Network.predict computes it, so the results are
   bit-identical to that reference. Two things make it fast without
   touching the contract:

   - Output neurons are SIMD lanes. The weights are transposed once per
     call, so the weights of input k for all outputs of a layer are
     contiguous; each lane accumulates one output neuron in ascending k,
     and BLOCK vectors of independent accumulators are in flight at
     once. Rows never share an accumulator.
   - Exact-zero inputs are skipped (relu zeroes about half of all hidden
     activations). The accumulator starts at +0.0, and in
     round-to-nearest a sum is -0.0 only when both operands are, so it
     never becomes -0.0 and adding 0*w = +-0 leaves it unchanged. That
     fails only when 0*w is NaN, i.e. when w is infinite or NaN, so a
     layer skips zeros only when every one of its weights is finite. The
     check runs on every call because training updates weights in place.

   Float contract of the training step: per element, the arithmetic and
   its order are those of the OCaml reference Network.train_batch_ref,
   so the loss, gradient, moments and parameters are bit-identical to
   it. See isaac_mlp_train_batch.

   The kernels keep no state between calls and size their scratch
   memory to the network and batch, so they are reentrant. Every operand
   they read while computing lives outside the OCaml heap (Bigarrays and
   malloc), so they release the runtime lock while they compute: other
   domains' stop-the-world collections need not wait for them. */

#define CAML_NAME_SPACE
#include <math.h>
#include <stdlib.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/bigarray.h>
#include <caml/threads.h>

/* One 128-bit vector of two doubles: SSE2 on x86-64, NEON on arm64. */
typedef double vec __attribute__((vector_size(16)));
typedef long long vec_mask __attribute__((vector_size(16)));
#define LANES 2

/* Output vectors accumulated per sweep over a row's inputs: eight
   independent add chains cover the latency of a vector add, and with
   the broadcast input they fit in sixteen vector registers. */
#define BLOCK 8

struct layer {
  long fan_in, fan_out;
  long nvec;        /* output vectors: fan_out rounded up to LANES */
  const vec *w;     /* transposed weights, w[k * nvec + v]; pad lanes 0 */
  const vec *bias;  /* nvec vectors; pad lanes 0 */
  int skip_zeros;   /* every weight of the layer is finite */
};

/* Output vectors [v0, v0 + nv) of one row: the sum over t ascending of
   xs[t] * rows[t][v] from +0.0, then [+ bias] unless [bias] is NULL,
   then relu if [relu] is set. In the forward pass xs[t] is kept input t
   broadcast to both lanes and rows[t] its row of transposed weights.
   [nv] is a constant at every call site, so the accumulators stay in
   registers. */
static inline __attribute__((always_inline)) void
dot_block(long v0, int nv, const vec *const *rows, const vec *xs, long n,
          const vec *bias, int relu, vec *out)
{
  vec acc[BLOCK];
  for (int v = 0; v < nv; v++) acc[v] = (vec){ 0.0, 0.0 };
  for (long t = 0; t < n; t++) {
    const vec x = xs[t];
    const vec *w = rows[t] + v0;
    for (int v = 0; v < nv; v++) acc[v] += x * w[v];
  }
  const vec zero = { 0.0, 0.0 };
  for (int v = 0; v < nv; v++) {
    vec y = acc[v];
    if (bias) y += bias[v0 + v];
    /* v < 0 -> +0.0; -0.0 and NaN pass through, as in Network.predict. */
    if (relu) y = (vec)((vec_mask)y & ~(y < zero));
    out[v0 + v] = y;
  }
}

/* dot_block over output vectors [0, nvec). */
static void dot_rows(long nvec, const vec *const *rows, const vec *xs, long n,
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
                      const vec **wrow, vec *xs, vec *out)
{
  const long k_n = l->fan_in, nvec = l->nvec;
  const vec *w = l->w;
  const int keep_all = !l->skip_zeros;
  long n = 0;
  for (long k = 0; k < k_n; k++) {
    const double x = in[k];
    wrow[n] = w + k * nvec;
    xs[n] = (vec){ x, x };
    n += (x != 0.0) | keep_all;
  }
  dot_rows(nvec, wrow, xs, n, l->bias, relu, out);
}

/* Transpose and lane-pad every layer's weights and bias from [params]
   (per layer: fan_out x fan_in row-major weights, then fan_out biases)
   into [dst], and record which layers may skip zero inputs. */
static void pack_layers(struct layer *ls, long nlayers, const double *params,
                        vec *dst)
{
  for (long i = 0; i < nlayers; i++) {
    struct layer *l = &ls[i];
    const long k_n = l->fan_in, j_n = l->fan_out, width = l->nvec * LANES;
    double *w = (double *)dst, *b = (double *)(dst + k_n * l->nvec);
    int finite = 1;
    for (long j = 0; j < k_n * j_n; j++) finite &= isfinite(params[j]) != 0;
    for (long k = 0; k < k_n; k++)
      for (long j = 0; j < width; j++)
        w[k * width + j] = j < j_n ? params[j * k_n + k] : 0.0;
    for (long j = 0; j < width; j++) b[j] = j < j_n ? params[k_n * j_n + j] : 0.0;
    l->w = dst;
    l->bias = dst + k_n * l->nvec;
    l->skip_zeros = finite;
    params += k_n * j_n + j_n;
    dst += (k_n + 1) * l->nvec;
  }
}

/* forward(widths, params, input, rows, output): [input] holds [rows]
   rows of widths.(0) features; [output] receives [rows] rows of the
   last layer's widths.(n-1) outputs. */
value isaac_mlp_forward_batch(value v_widths, value v_params, value v_input,
                              value v_rows, value v_output)
{
  CAMLparam5(v_widths, v_params, v_input, v_rows, v_output);
  const long nlayers = (long)Wosize_val(v_widths) - 1;
  const long rows = Long_val(v_rows);
  if (nlayers < 1 || rows < 0)
    caml_invalid_argument("Network.forward_batch: shape");
  long params_len = 0, wt_vecs = 0, max_in = 0, max_vec = 0;
  for (long i = 0; i < nlayers; i++) {
    const long k_n = Long_val(Field(v_widths, i));
    const long j_n = Long_val(Field(v_widths, i + 1));
    if (k_n < 1 || j_n < 1)
      caml_invalid_argument("Network.forward_batch: layer width");
    const long nvec = (j_n + LANES - 1) / LANES;
    params_len += k_n * j_n + j_n;
    wt_vecs += (k_n + 1) * nvec;
    if (k_n > max_in) max_in = k_n;
    if (nvec > max_vec) max_vec = nvec;
  }
  const long in_w = Long_val(Field(v_widths, 0));
  const long out_w = Long_val(Field(v_widths, nlayers));
  if (Caml_ba_array_val(v_params)->dim[0] != params_len
      || Caml_ba_array_val(v_input)->dim[0] < rows * in_w
      || Caml_ba_array_val(v_output)->dim[0] < rows * out_w)
    caml_invalid_argument("Network.forward_batch: operand size");

  struct layer *ls = malloc(nlayers * sizeof *ls);
  /* Transposed weights, then two activation buffers and the kept
     inputs of the current row. */
  vec *wt = aligned_alloc(sizeof(vec), (wt_vecs + 2 * max_vec + max_in) * sizeof(vec));
  const vec **wrow = malloc(max_in * sizeof *wrow);
  if (ls == NULL || wt == NULL || wrow == NULL) {
    free(ls); free(wt); free(wrow);
    caml_raise_out_of_memory();
  }
  for (long i = 0; i < nlayers; i++) {
    ls[i].fan_in = Long_val(Field(v_widths, i));
    ls[i].fan_out = Long_val(Field(v_widths, i + 1));
    ls[i].nvec = (ls[i].fan_out + LANES - 1) / LANES;
  }
  const double *params = Caml_ba_data_val(v_params);
  const double *input = Caml_ba_data_val(v_input);
  double *output = Caml_ba_data_val(v_output);
  vec *act[2] = { wt + wt_vecs, wt + wt_vecs + max_vec };
  vec *xs = wt + wt_vecs + 2 * max_vec;

  caml_release_runtime_system();
  pack_layers(ls, nlayers, params, wt);
  for (long r = 0; r < rows; r++) {
    const double *in = input + r * in_w;
    for (long i = 0; i < nlayers; i++) {
      layer_row(&ls[i], in, i < nlayers - 1, wrow, xs, act[i & 1]);
      in = (const double *)act[i & 1];
    }
    for (long j = 0; j < out_w; j++) output[r * out_w + j] = in[j];
  }
  caml_acquire_runtime_system();

  free(ls); free(wt); free(wrow);
  CAMLreturn(Val_unit);
}

/* Training. The forward pass above runs unchanged and keeps every
   layer's activations; the backward pass reuses dot_rows without bias
   or relu: each gradient element is a sum of products accumulated in
   one SIMD lane, from +0.0, over a list of kept terms in a fixed
   order. */

/* train(widths, params, grad, m, v, x, rows, y, hyper): one Adam step
   on the minibatch of [rows] rows of [x] with targets [y]; [hyper] is
   [| lr; beta1; beta2; epsilon; 1 - beta1^step; 1 - beta2^step |].
   Returns the summed squared error before the update.

   Every per-element order is the OCaml reference's
   (Network.train_batch_ref):
   - forward: the inference kernel above, whose outputs are bit-equal
     to the reference's, activations of every layer kept;
   - output delta: 2 (out - y) / rows; the loss sums (out - y)^2 over
     rows ascending;
   - weight gradients: rows ascending, skipping rows whose delta is
     zero (0 * inf would be NaN);
   - bias gradients: rows ascending, no skip;
   - delta passed down: output units ascending, skipping zero deltas,
     then zeroed where the activation is <= 0;
   - Adam: the reference's expression for every parameter.
   Rows, units and parameters are independent lanes, so vectorising
   across them changes no element's arithmetic. Activations and deltas
   are stored in rows of lane-padded vectors, so every product reads
   aligned vectors; pad lanes are never read back. */

/* Width i of the network, input first: its lane-padded vector count,
   its activations (rows x nv vectors) and, for hidden widths, layer i's
   weights row-major and lane-padded, which the delta passed down from
   width i + 1 reads. */
struct width {
  long nv;
  vec *act;
  vec *wp;
};

value isaac_mlp_train_batch(value v_widths, value v_params, value v_grad,
                            value v_m, value v_v, value v_x, value v_rows,
                            value v_y, value v_hyper)
{
  CAMLparam5(v_widths, v_params, v_grad, v_m, v_v);
  CAMLxparam4(v_x, v_rows, v_y, v_hyper);
  const long nlayers = (long)Wosize_val(v_widths) - 1;
  const long rows = Long_val(v_rows);
  if (nlayers < 1)
    caml_invalid_argument("Network.train_batch: shape");
  long params_len = 0, wt_vecs = 0, wp_vecs = 0, act_vecs = 0;
  long max_width = rows, max_vec = 0;
  for (long i = 0; i <= nlayers; i++) {
    const long w = Long_val(Field(v_widths, i));
    if (w < 1)
      caml_invalid_argument("Network.train_batch: layer width");
    const long nvec = (w + LANES - 1) / LANES;
    act_vecs += nvec;
    if (w > max_width) max_width = w;
    if (nvec > max_vec) max_vec = nvec;
    if (i < nlayers) {
      const long j_n = Long_val(Field(v_widths, i + 1));
      params_len += w * j_n + j_n;
      wt_vecs += (w + 1) * ((j_n + LANES - 1) / LANES);
      if (i > 0) wp_vecs += j_n * nvec;
    }
  }
  const long in_w = Long_val(Field(v_widths, 0));
  if (Long_val(Field(v_widths, nlayers)) != 1)
    caml_invalid_argument("Network.train_batch: output width");
  if (rows < 1)
    caml_invalid_argument("Network.train_batch: x has no rows");
  if ((long)caml_array_length(v_y) != rows)
    caml_invalid_argument("Network.train_batch: y length");
  if (caml_array_length(v_hyper) != 6)
    caml_invalid_argument("Network.train_batch: hyperparameters");
  if (Caml_ba_array_val(v_params)->dim[0] != params_len
      || Caml_ba_array_val(v_grad)->dim[0] != params_len
      || Caml_ba_array_val(v_m)->dim[0] != params_len
      || Caml_ba_array_val(v_v)->dim[0] != params_len
      || Caml_ba_array_val(v_x)->dim[0] < rows * in_w)
    caml_invalid_argument("Network.train_batch: operand size");

  /* Vectors: every width's activations and padded weights; the forward
     pass's transposed weights; two delta buffers; broadcast terms; one
     gradient row; the targets. */
  const long vecs = rows * act_vecs + wp_vecs + wt_vecs + 2 * rows * max_vec
                    + max_width + max_vec + (rows + LANES - 1) / LANES;
  struct layer *ls = malloc(nlayers * sizeof *ls);
  struct width *ws = malloc((nlayers + 1) * sizeof *ws);
  const vec **rowp = malloc(max_width * sizeof *rowp);
  vec *buf = aligned_alloc(sizeof(vec), vecs * sizeof(vec));
  if (ls == NULL || ws == NULL || rowp == NULL || buf == NULL) {
    free(ls); free(ws); free(rowp); free(buf);
    caml_raise_out_of_memory();
  }
  vec *next = buf;
  for (long i = 0; i <= nlayers; i++) {
    const long w = Long_val(Field(v_widths, i));
    ws[i].nv = (w + LANES - 1) / LANES;
    ws[i].act = next;
    next += rows * ws[i].nv;
    ws[i].wp = NULL;
    if (i > 0 && i < nlayers) {
      ws[i].wp = next;
      next += Long_val(Field(v_widths, i + 1)) * ws[i].nv;
    }
  }
  for (long i = 0; i < nlayers; i++) {
    ls[i].fan_in = Long_val(Field(v_widths, i));
    ls[i].fan_out = Long_val(Field(v_widths, i + 1));
    ls[i].nvec = ws[i + 1].nv;
  }
  vec *wt = next; next += wt_vecs;
  vec *delta = next; next += rows * max_vec;
  vec *down = next; next += rows * max_vec;
  vec *xs = next; next += max_width;
  vec *grow = next; next += max_vec;
  /* [y] is an OCaml float array, which a collection may move once the
     lock is released: copy it, and the hyperparameters, first. */
  double *y = (double *)next;
  for (long r = 0; r < rows; r++) y[r] = Double_array_field(v_y, r);
  const double lr = Double_array_field(v_hyper, 0);
  const double beta1 = Double_array_field(v_hyper, 1);
  const double beta2 = Double_array_field(v_hyper, 2);
  const double eps = Double_array_field(v_hyper, 3);
  const double bc1 = Double_array_field(v_hyper, 4);
  const double bc2 = Double_array_field(v_hyper, 5);
  double *params = Caml_ba_data_val(v_params);
  double *grad = Caml_ba_data_val(v_grad);
  double *m = Caml_ba_data_val(v_m);
  double *v = Caml_ba_data_val(v_v);
  const double *x = Caml_ba_data_val(v_x);

  caml_release_runtime_system();

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
  double loss = 0.0;
  for (long r = 0; r < rows; r++) {
    const double d = ((const double *)(ws[nlayers].act + r * ws[nlayers].nv))[0] - y[r];
    loss += d * d;
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
        xs[n] = (vec){ dv, dv };
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
          xs[n] = (vec){ dv, dv };
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

  caml_acquire_runtime_system();

  free(ls); free(ws); free(rowp); free(buf);
  CAMLreturn(caml_copy_double(loss));
}

value isaac_mlp_train_batch_byte(value *argv, int argn)
{
  (void)argn;
  return isaac_mlp_train_batch(argv[0], argv[1], argv[2], argv[3], argv[4],
                               argv[5], argv[6], argv[7], argv[8]);
}
