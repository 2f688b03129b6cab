/* The kernel behind Mlp.Network.forward_batch: batched MLP inference
   for the planning hot path (DESIGN.md "Planning hot path"). It reads
   the network's own parameter vector in place (per layer: fan_out x
   fan_in row-major weights, then fan_out biases).

   Float contract. Every output element is the ascending-k
   single-accumulator dot product, then [+ bias], then
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

   The kernel keeps no state between calls and sizes its scratch memory
   to the network, so it is reentrant. Every operand lives outside the
   OCaml heap (Bigarrays and malloc), so it releases the runtime lock
   while it computes: other domains' stop-the-world collections need not
   wait for it. */

#define CAML_NAME_SPACE
#include <math.h>
#include <stdlib.h>
#include <caml/mlvalues.h>
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

/* Output vectors [v0, v0 + nv) of one row, from the row's kept inputs:
   xs[t] is input value t broadcast to both lanes, wrow[t] its row of
   transposed weights. [nv] is a constant at every call site, so the
   accumulators stay in registers. */
static inline __attribute__((always_inline)) void
dot_block(const struct layer *l, long v0, int nv, const vec *const *wrow,
          const vec *xs, long n, int relu, vec *out)
{
  vec acc[BLOCK];
  for (int v = 0; v < nv; v++) acc[v] = (vec){ 0.0, 0.0 };
  for (long t = 0; t < n; t++) {
    const vec x = xs[t];
    const vec *w = wrow[t] + v0;
    for (int v = 0; v < nv; v++) acc[v] += x * w[v];
  }
  const vec zero = { 0.0, 0.0 };
  for (int v = 0; v < nv; v++) {
    vec y = acc[v] + l->bias[v0 + v];
    /* v < 0 -> +0.0; -0.0 and NaN pass through, as in Network.predict. */
    if (relu) y = (vec)((vec_mask)y & ~(y < zero));
    out[v0 + v] = y;
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
  long v0 = 0;
  for (; v0 + BLOCK <= l->nvec; v0 += BLOCK)
    dot_block(l, v0, BLOCK, wrow, xs, n, relu, out);
  switch (l->nvec - v0) {
  case 7: dot_block(l, v0, 7, wrow, xs, n, relu, out); break;
  case 6: dot_block(l, v0, 6, wrow, xs, n, relu, out); break;
  case 5: dot_block(l, v0, 5, wrow, xs, n, relu, out); break;
  case 4: dot_block(l, v0, 4, wrow, xs, n, relu, out); break;
  case 3: dot_block(l, v0, 3, wrow, xs, n, relu, out); break;
  case 2: dot_block(l, v0, 2, wrow, xs, n, relu, out); break;
  case 1: dot_block(l, v0, 1, wrow, xs, n, relu, out); break;
  default: break;
  }
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
