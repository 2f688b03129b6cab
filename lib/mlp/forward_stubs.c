/* The kernels behind Mlp.Network.forward_batch (batched MLP inference
   over a feature matrix), Mlp.Network.predict_codes (the same
   inference over coded rows: the planning hot path, DESIGN.md
   "Planning hot path") and Mlp.Network.train_batch (one minibatch step
   of training, DESIGN.md "MLP storage and training"). All read the
   network's own parameter vector in place (per layer: fan_out x fan_in
   row-major weights, then fan_out biases); training also updates it,
   the gradient and Adam's two moments, vectors of the same layout, in
   place.

   One source, one copy per vector width. mlp_kernels.h holds the
   kernel body, written over a GCC vector of LANES doubles; this file
   compiles it for 2 lanes (128-bit vectors: SSE2 on x86-64, NEON on
   arm64) and, on x86-64, for 4 (256-bit AVX2) under
   "#pragma GCC target", so the build needs no -m flag and the library
   still runs on any x86-64. Network.lanes picks the widest copy the
   running CPU supports once, when the program starts
   (isaac_mlp_widest_lanes), and passes it on every call. There is no
   8-lane AVX-512F copy: it did not beat 4 lanes by more than the
   benchmark's run-to-run spread (DESIGN.md "Planning hot path").

   Float contract of the forward pass. Every output element is the
   ascending-k single-accumulator dot product, then [+ bias], then
   [if v < 0 then 0 else v] on hidden layers, exactly as the OCaml
   reference Network.predict computes it, so the results are
   bit-identical to that reference at every width. Three things make
   it fast without touching the contract:

   - Output neurons are SIMD lanes in the hidden layers. The weights are
     transposed once per call, so the weights of input k for all
     outputs of a layer are contiguous; each lane accumulates one output
     neuron in ascending k, and BLOCK vectors of independent
     accumulators are in flight at once. Rows never share an
     accumulator, and the width only decides which neurons share a
     vector.
   - Rows are SIMD lanes in the output layer, which has one output (the
     stub rejects any other width): one neuron would leave all lanes
     but one idle in a serial add chain, so LANES rows run the hidden
     layers one by one, their last hidden activations are gathered one
     row per lane, and each lane accumulates its row's output in
     ascending k, every input added, then adds the bias. A partly
     filled last group computes on zeros in its spare lanes and stores
     only its own rows.
   - Exact-zero inputs are skipped in the hidden layers (relu zeroes
     about half of all hidden activations). The accumulator starts at
     +0.0, and in round-to-nearest a sum is -0.0 only when both operands
     are, so it never becomes -0.0 and adding 0*w = +-0 leaves it
     unchanged. That fails only when 0*w is NaN, i.e. when w is infinite
     or NaN, so a layer skips zeros only when every one of its weights
     is finite. The check runs on every call because training updates
     weights in place. The row-lane output layer skips nothing.

   Coded rows (forward_codes) change only the first hidden layer. A
   coded row's first inputs are shared by every row of the call, and
   each later input is a value from a small table, picked by a bit
   field of the row's code. Once per call, the kernel takes the first
   layer's sum over the shared inputs with dot_rows and multiplies each
   table value by its weights. Each row then adds its products to that
   sum in input order, then the bias, then relu. The shared sum is the
   dense path's running sum after the shared inputs, and each product
   is the product the dense path forms, so the additions are the same
   and in the same order. The coded layer adds every term where the
   dense path skips zero inputs of an all-finite layer; by the argument
   above that changes nothing, and with a non-finite weight both add
   every term. With no hidden layer, a coded row's inputs are written
   out and go through the row-lane output layer like a dense row's.

   Float contract of the training step: per element, the arithmetic and
   its order are those of the OCaml reference Network.train_batch_ref,
   so the loss, gradient, moments and parameters are bit-identical to
   it. See isaac_mlp_train_batch.

   Both contracts need -ffp-contract=off (lib/mlp/dune): arm64 has
   fused multiply-add instructions, and GCC would otherwise fuse
   a += b*c there.

   The kernels keep no state between calls and size their scratch
   memory to the network, batch, tables and width, so they are
   reentrant. Every operand they read while computing lives outside the
   OCaml heap (Bigarrays and malloc), so they release the runtime lock
   while they compute: other domains' stop-the-world collections need
   not wait for them. */

#define CAML_NAME_SPACE
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/bigarray.h>
#include <caml/threads.h>

/* Output vectors accumulated per sweep over a row's inputs: eight
   independent add chains cover the latency of a vector add, and with
   the broadcast input they fit in sixteen vector registers. */
#define BLOCK 8

#define LANES 2
#include "mlp_kernels.h"
#undef LANES

#if defined(__x86_64__)
#pragma GCC push_options
#pragma GCC target("avx2")
#define LANES 4
#include "mlp_kernels.h"
#undef LANES
#pragma GCC pop_options
#endif

/* The widest width the running CPU supports: 4 with AVX2, else 2.
   Network.lanes calls this once, during module initialisation, before
   any domain can call a kernel. */
value isaac_mlp_widest_lanes(value unit)
{
  (void)unit;
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return Val_long(4);
#endif
  return Val_long(2);
}

typedef int forward_fn(const long *, long, const double *, const double *,
                       long, double *);
typedef int codes_fn(const long *, long, const double *, const double *, long,
                     const double *, const long *, long, const int32_t *, long,
                     double *);
typedef int train_fn(const long *, long, double *, double *, double *,
                     double *, const double *, long, const double *,
                     const double *, double *);

static const struct kernel {
  long lanes;
  forward_fn *forward;
  codes_fn *codes;
  train_fn *train;
} kernels[] = {
  { 2, forward_rows_2, forward_codes_2, train_step_2 },
#if defined(__x86_64__)
  { 4, forward_rows_4, forward_codes_4, train_step_4 },
#endif
};

/* Every width compiled for this architecture, ascending
   (Network.compiled_lanes). */
value isaac_mlp_compiled_lanes(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(widths);
  const size_t n = sizeof kernels / sizeof kernels[0];
  widths = caml_alloc(n, 0);
  for (size_t i = 0; i < n; i++) Store_field(widths, i, Val_long(kernels[i].lanes));
  CAMLreturn(widths);
}

/* The copy compiled for [v_lanes] doubles per vector. The caller
   (Network) only passes a width the CPU supports. */
static const struct kernel *kernel_of(value v_lanes, const char *fail)
{
  for (size_t i = 0; i < sizeof kernels / sizeof kernels[0]; i++)
    if (kernels[i].lanes == Long_val(v_lanes)) return &kernels[i];
  caml_invalid_argument(fail);
}

/* The layer widths as a C array: the OCaml array may move once the
   runtime lock is released. */
static long *copy_widths(value v_widths)
{
  const long n = (long)Wosize_val(v_widths);
  long *widths = malloc(n * sizeof *widths);
  if (widths == NULL) caml_raise_out_of_memory();
  for (long i = 0; i < n; i++) widths[i] = Long_val(Field(v_widths, i));
  return widths;
}

/* Raise Invalid_argument "<name>: <what>". */
static void __attribute__((noreturn)) invalid(const char *name, const char *what)
{
  caml_invalid_argument_value(caml_alloc_sprintf("%s: %s", name, what));
}

/* The layer count of an inference call's network, after checking that
   it has a layer, every width is at least 1, the last is 1 (the
   kernels compute one output per row) and [v_params] holds exactly its
   parameters; raises Invalid_argument naming [name] otherwise. */
static long check_network(value v_widths, value v_params, const char *name)
{
  const long nlayers = (long)Wosize_val(v_widths) - 1;
  if (nlayers < 1) invalid(name, "shape");
  long params_len = 0;
  for (long i = 0; i < nlayers; i++) {
    const long k_n = Long_val(Field(v_widths, i));
    const long j_n = Long_val(Field(v_widths, i + 1));
    if (k_n < 1 || j_n < 1) invalid(name, "layer width");
    params_len += k_n * j_n + j_n;
  }
  if (Long_val(Field(v_widths, nlayers)) != 1) invalid(name, "output width");
  if (Caml_ba_array_val(v_params)->dim[0] != params_len) invalid(name, "operand size");
  return nlayers;
}

/* forward(lanes, widths, params, input, rows, output): [input] holds
   [rows] rows of widths.(0) features; [output] receives the [rows]
   outputs of the one-output last layer (widths.(n-1) = 1, as every
   network Network.create builds and every profile loads). */
value isaac_mlp_forward_batch(value v_lanes, value v_widths, value v_params,
                              value v_input, value v_rows, value v_output)
{
  CAMLparam5(v_lanes, v_widths, v_params, v_input, v_rows);
  CAMLxparam1(v_output);
  const struct kernel *kn = kernel_of(v_lanes, "Network.forward_batch: lanes");
  const long nlayers = check_network(v_widths, v_params, "Network.forward_batch");
  const long rows = Long_val(v_rows);
  if (rows < 0) caml_invalid_argument("Network.forward_batch: shape");
  const long in_w = Long_val(Field(v_widths, 0));
  if (Caml_ba_array_val(v_input)->dim[0] < rows * in_w
      || Caml_ba_array_val(v_output)->dim[0] < rows)
    caml_invalid_argument("Network.forward_batch: operand size");

  long *widths = copy_widths(v_widths);
  const double *params = Caml_ba_data_val(v_params);
  const double *input = Caml_ba_data_val(v_input);
  double *output = Caml_ba_data_val(v_output);

  caml_release_runtime_system();
  const int status = kn->forward(widths, nlayers, params, input, rows, output);
  caml_acquire_runtime_system();

  free(widths);
  if (status != 0) caml_raise_out_of_memory();
  CAMLreturn(Val_unit);
}

value isaac_mlp_forward_batch_byte(value *argv, int argn)
{
  (void)argn;
  return isaac_mlp_forward_batch(argv[0], argv[1], argv[2], argv[3], argv[4],
                                 argv[5]);
}

/* codes(lanes, widths, params, shared, tables, codes, off, len, output):
   [output] receives the outputs of rows [off, off + len) of [codes].
   A row's inputs are [shared], then one value per table: the field of
   its code that indexes table j is the next log2 (length of table j)
   bits, lowest first. Every table's length must be a power of two and
   the fields must fit in the 32 bits of a code, so no code can index
   outside its field's table. */
value isaac_mlp_forward_codes(value v_lanes, value v_widths, value v_params,
                              value v_shared, value v_tables, value v_codes,
                              value v_off, value v_len, value v_output)
{
  CAMLparam5(v_lanes, v_widths, v_params, v_shared, v_tables);
  CAMLxparam4(v_codes, v_off, v_len, v_output);
  const struct kernel *kn = kernel_of(v_lanes, "Network.predict_codes: lanes");
  const long nlayers = check_network(v_widths, v_params, "Network.predict_codes");
  const long off = Long_val(v_off), len = Long_val(v_len);
  const long nshared = (long)caml_array_length(v_shared);
  const long nfields = (long)Wosize_val(v_tables);
  if (nshared + nfields != Long_val(Field(v_widths, 0)))
    caml_invalid_argument("Network.predict_codes: input width");
  long total_bits = 0, entries = 0;
  for (long j = 0; j < nfields; j++) {
    const long n = (long)caml_array_length(Field(v_tables, j));
    if (n < 1 || (n & (n - 1)) != 0)
      caml_invalid_argument("Network.predict_codes: table length");
    total_bits += __builtin_ctzl(n);
    entries += n;
  }
  if (total_bits > 32)
    caml_invalid_argument("Network.predict_codes: code width");
  const long ncodes = Caml_ba_array_val(v_codes)->dim[0];
  if (off < 0 || len < 0 || off > ncodes || len > ncodes - off
      || Caml_ba_array_val(v_output)->dim[0] < len)
    caml_invalid_argument("Network.predict_codes: row range");

  /* [shared] and [tables] are OCaml float arrays, which a collection
     may move once the lock is released: copy them first. */
  long *widths = copy_widths(v_widths);
  double *vals = malloc((nshared + entries + 1) * sizeof *vals);
  long *bits = malloc((nfields + 1) * sizeof *bits);
  if (vals == NULL || bits == NULL) {
    free(widths); free(vals); free(bits);
    caml_raise_out_of_memory();
  }
  for (long k = 0; k < nshared; k++) vals[k] = Double_array_field(v_shared, k);
  for (long j = 0, e = nshared; j < nfields; j++) {
    const value t = Field(v_tables, j);
    const long n = (long)caml_array_length(t);
    bits[j] = __builtin_ctzl(n);
    for (long i = 0; i < n; i++) vals[e++] = Double_array_field(t, i);
  }
  const double *params = Caml_ba_data_val(v_params);
  const int32_t *codes = (const int32_t *)Caml_ba_data_val(v_codes) + off;
  double *output = Caml_ba_data_val(v_output);

  caml_release_runtime_system();
  const int status = kn->codes(widths, nlayers, params, vals, nshared,
                               vals + nshared, bits, nfields, codes, len, output);
  caml_acquire_runtime_system();

  free(widths); free(vals); free(bits);
  if (status != 0) caml_raise_out_of_memory();
  CAMLreturn(Val_unit);
}

value isaac_mlp_forward_codes_byte(value *argv, int argn)
{
  (void)argn;
  return isaac_mlp_forward_codes(argv[0], argv[1], argv[2], argv[3], argv[4],
                                 argv[5], argv[6], argv[7], argv[8]);
}

/* train(lanes, widths, params, grad, m, v, x, rows, y, hyper): one Adam
   step on the minibatch of [rows] rows of [x] with targets [y]; [hyper]
   is [| lr; beta1; beta2; epsilon; 1 - beta1^step; 1 - beta2^step |].
   Returns the summed squared error before the update.

   Every per-element order is the OCaml reference's
   (Network.train_batch_ref):
   - forward: every layer one row at a time, as the inference
     kernel's hidden layers run, activations of every layer kept;
   - output delta: 2 (out - y) / rows; the loss sums (out - y)^2 over
     rows ascending;
   - weight gradients: rows ascending, skipping rows whose delta is
     zero (0 * inf would be NaN);
   - bias gradients: rows ascending, no skip;
   - delta passed down: output units ascending, skipping zero deltas,
     then zeroed where the activation is <= 0;
   - Adam: the reference's expression for every parameter.
   Rows, units and parameters are independent lanes, so vectorising
   across them changes no element's arithmetic. */
value isaac_mlp_train_batch(value v_lanes, value v_widths, value v_params,
                            value v_grad, value v_m, value v_v, value v_x,
                            value v_rows, value v_y, value v_hyper)
{
  CAMLparam5(v_lanes, v_widths, v_params, v_grad, v_m);
  CAMLxparam5(v_v, v_x, v_rows, v_y, v_hyper);
  const struct kernel *kn = kernel_of(v_lanes, "Network.train_batch: lanes");
  const long nlayers = (long)Wosize_val(v_widths) - 1;
  const long rows = Long_val(v_rows);
  if (nlayers < 1)
    caml_invalid_argument("Network.train_batch: shape");
  long params_len = 0;
  for (long i = 0; i <= nlayers; i++) {
    const long w = Long_val(Field(v_widths, i));
    if (w < 1)
      caml_invalid_argument("Network.train_batch: layer width");
    if (i < nlayers) {
      const long j_n = Long_val(Field(v_widths, i + 1));
      params_len += w * j_n + j_n;
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

  /* [y] and [hyper] are OCaml float arrays, which a collection may move
     once the lock is released: copy them first. */
  long *widths = copy_widths(v_widths);
  double *y = malloc(rows * sizeof *y);
  if (y == NULL) {
    free(widths);
    caml_raise_out_of_memory();
  }
  for (long r = 0; r < rows; r++) y[r] = Double_array_field(v_y, r);
  double hyper[6];
  for (int i = 0; i < 6; i++) hyper[i] = Double_array_field(v_hyper, i);
  double *params = Caml_ba_data_val(v_params);
  double *grad = Caml_ba_data_val(v_grad);
  double *m = Caml_ba_data_val(v_m);
  double *v = Caml_ba_data_val(v_v);
  const double *x = Caml_ba_data_val(v_x);
  double loss = 0.0;

  caml_release_runtime_system();
  const int status =
    kn->train(widths, nlayers, params, grad, m, v, x, rows, y, hyper, &loss);
  caml_acquire_runtime_system();

  free(widths); free(y);
  if (status != 0) caml_raise_out_of_memory();
  CAMLreturn(caml_copy_double(loss));
}

value isaac_mlp_train_batch_byte(value *argv, int argn)
{
  (void)argn;
  return isaac_mlp_train_batch(argv[0], argv[1], argv[2], argv[3], argv[4],
                               argv[5], argv[6], argv[7], argv[8], argv[9]);
}
