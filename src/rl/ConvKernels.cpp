//===- rl/ConvKernels.cpp ------------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Every kernel keeps a tile of accumulators in vector registers and
// adds each element's terms in the order docs/TRAINING.md fixes. Each
// pass first copies its operands into zero-padded buffers, so a tile
// never needs a bounds branch: a tap that falls outside its sample adds
// W * 0 or G * 0, which is +-0 for finite weights and gradients, and
// x + (+-0) == x for every partial sum here, since a sum started at a
// bias or gradient (never -0) and grown by float additions is never
// -0. Tile rows past the last channel and columns past a sample's end
// are computed from zeros and discarded.
//
// The kernels are written once against GCC vector types of N lanes.
// Vector width only decides how many elements are summed side by side,
// never the order of any one element's terms, so every instance gives
// the same bits. No instance may contract a multiply and an add into
// an FMA (it rounds once, not twice): none is compiled with an FMA
// target.
//
//===----------------------------------------------------------------------===//

#include "rl/ConvKernels.h"

#include <algorithm>

using namespace cuasmrl;
using namespace cuasmrl::rl;
using namespace cuasmrl::rl::conv;

// Every Blocked<N> member is inlined into its instance's entry point,
// so it is compiled for that entry point's target (AVX2 or baseline).
#define CONV_INLINE inline __attribute__((always_inline))

namespace {

/// Channels per forward and input-gradient tile.
constexpr size_t TileChans = 4;

size_t roundUp(size_t V, size_t M) { return (V + M - 1) / M * M; }

size_t sampleLength(const Geometry &G, size_t S) {
  return G.Offsets[S + 1] - G.Offsets[S];
}

/// Column layout of zero-padded copies of the packed samples: sample S
/// gets a segment of roundUp(L, Tile) + 2 * (K/2) columns starting at
/// Start[S].
struct Padded {
  const Geometry &G;
  std::vector<size_t> Start;
  size_t Width = 0;

  Padded(const Geometry &G, size_t Tile) : G(G), Start(G.Samples) {
    for (size_t S = 0; S < G.Samples; ++S) {
      Start[S] = Width;
      Width += roundUp(sampleLength(G, S), Tile) + 2 * (G.K / 2);
    }
  }

  /// Copies packed [Rows, Total] \p Src into padded [Rows, Width] \p Dst,
  /// each sample's columns \p Shift past the start of its segment.
  void pack(const float *Src, size_t Rows, float *Dst, size_t Shift) const {
    for (size_t R = 0; R < Rows; ++R)
      for (size_t S = 0; S < G.Samples; ++S)
        std::copy_n(Src + R * G.Total + G.Offsets[S], sampleLength(G, S),
                    Dst + R * Width + Start[S] + Shift);
  }

  /// The reverse of pack(Dst, Rows, Src, 0).
  void unpack(const float *Src, size_t Rows, float *Dst) const {
    for (size_t R = 0; R < Rows; ++R)
      for (size_t S = 0; S < G.Samples; ++S)
        std::copy_n(Src + R * Width + Start[S], sampleLength(G, S),
                    Dst + R * G.Total + G.Offsets[S]);
  }
};

/// W [Cout, Cin, K] regrouped for TileChans-channel tiles as [Blocks,
/// Rows, K, TileChans], so the weights a tile multiplies by one row's
/// tap are adjacent; zero past the last channel. The forward tiles
/// output channels over input-channel rows. The input gradient tiles
/// input channels over output-channel rows, with the taps reversed.
std::vector<float> packWeights(const Geometry &G, const float *W,
                               bool InputTiles) {
  const size_t K = G.K, Rows = InputTiles ? G.Cout : G.Cin;
  const size_t Chans = InputTiles ? G.Cin : G.Cout;
  std::vector<float> Wp(roundUp(Chans, TileChans) * Rows * K, 0.0f);
  for (size_t O = 0; O < G.Cout; ++O)
    for (size_t C = 0; C < G.Cin; ++C)
      for (size_t T = 0; T < K; ++T) {
        const size_t Ch = InputTiles ? C : O, R = InputTiles ? O : C;
        const size_t Tap = InputTiles ? K - 1 - T : T;
        Wp[((Ch / TileChans * Rows + R) * K + Tap) * TileChans +
           Ch % TileChans] = W[(O * G.Cin + C) * K + T];
      }
  return Wp;
}

template <size_t N> struct Blocked {
  typedef float V __attribute__((vector_size(N * sizeof(float))));

  /// Positions per forward and input-gradient tile: two vectors.
  static constexpr size_t Tile = 2 * N;
  /// Weight-gradient tiles: up to MaxVecs vectors of one output
  /// channel's [T, C] gradient.
  static constexpr size_t MaxVecs = 12;

  static CONV_INLINE void load(V &Dst, const float *Src) {
    __builtin_memcpy(&Dst, Src, sizeof(V));
  }
  static CONV_INLINE void store(float *Dst, const V &Src) {
    __builtin_memcpy(Dst, &Src, sizeof(V));
  }

  /// The forward and the input gradient, tile by tile: every column Q
  /// of every sample's segment of padded [Blocks * TileChans, Width]
  /// \p Out gets Wp[B, R, T, J] * In[R, Q + T] added by ascending (R, T),
  /// onto its current value, for padded [Rows, Width] \p In and weights
  /// \p Wp from packWeights().
  static CONV_INLINE void correlate(const Padded &P, const float *In,
                                    size_t Rows, const float *Wp,
                                    size_t Blocks, float *Out) {
    const size_t K = P.G.K, Width = P.Width;
    for (size_t B = 0; B < Blocks; ++B) {
      const float *WBlock = Wp + B * Rows * K * TileChans;
      float *OutBlock = Out + B * TileChans * Width;
      for (size_t S = 0; S < P.G.Samples; ++S) {
        for (size_t Q = 0, L = sampleLength(P.G, S); Q < L; Q += Tile) {
          const size_t Col = P.Start[S] + Q;
          V Acc[TileChans][2];
          for (size_t J = 0; J < TileChans; ++J) {
            load(Acc[J][0], OutBlock + J * Width + Col);
            load(Acc[J][1], OutBlock + J * Width + Col + N);
          }
          for (size_t R = 0; R < Rows; ++R) {
            const float *InRow = In + R * Width + Col;
            const float *WTaps = WBlock + R * K * TileChans;
            for (size_t T = 0; T < K; ++T) {
              V X0, X1;
              load(X0, InRow + T);
              load(X1, InRow + T + N);
              for (size_t J = 0; J < TileChans; ++J) {
                const float Wt = WTaps[T * TileChans + J];
                Acc[J][0] += Wt * X0;
                Acc[J][1] += Wt * X1;
              }
            }
          }
          for (size_t J = 0; J < TileChans; ++J) {
            store(OutBlock + J * Width + Col, Acc[J][0]);
            store(OutBlock + J * Width + Col + N, Acc[J][1]);
          }
        }
      }
    }
  }

  /// Output [O, P]: the bias, then W[O, C, T] * X[C, P + T - K/2] by
  /// ascending (C, T). The input sits K/2 columns into each padded
  /// segment, so tap T of position P reads column P + T.
  static CONV_INLINE void forward(const Geometry &G, const float *X,
                                  const float *W, const float *B,
                                  float *Out) {
    const Padded P(G, Tile);
    const size_t Blocks = (G.Cout + TileChans - 1) / TileChans;
    std::vector<float> Xp(G.Cin * P.Width, 0.0f);
    P.pack(X, G.Cin, Xp.data(), G.K / 2);
    std::vector<float> Yp(Blocks * TileChans * P.Width);
    for (size_t O = 0; O < G.Cout; ++O)
      std::fill_n(Yp.data() + O * P.Width, P.Width, B[O]);
    correlate(P, Xp.data(), G.Cin, packWeights(G, W, false).data(), Blocks,
              Yp.data());
    P.unpack(Yp.data(), G.Cout, Out);
  }

  /// Adds the nonzero upstream terms of one output channel to Vecs
  /// vectors of its weight gradient, flattened as [T, C] so that each
  /// term is one contiguous span of the input: the E-th position with a
  /// nonzero gradient Gs[E] has its tap-0 row at Xt + Offs[E], and its K
  /// taps' rows follow.
  template <size_t Vecs>
  static CONV_INLINE void weightTile(float *Tile, const float *Xt,
                                     const size_t *Offs, const float *Gs,
                                     size_t Count) {
    V Acc[Vecs];
    for (size_t J = 0; J < Vecs; ++J)
      load(Acc[J], Tile + J * N);
    for (size_t E = 0; E < Count; ++E) {
      const float Gv = Gs[E];
      const float *XSpan = Xt + Offs[E];
      for (size_t J = 0; J < Vecs; ++J) {
        V Xv;
        load(Xv, XSpan + J * N);
        Acc[J] += Gv * Xv;
      }
    }
    for (size_t J = 0; J < Vecs; ++J)
      store(Tile + J * N, Acc[J]);
  }

  /// weightTile<Vecs> for a runtime Vecs <= Max.
  template <size_t Max>
  static CONV_INLINE void weightTileUpTo(size_t Vecs, float *Tile,
                                         const float *Xt, const size_t *Offs,
                                         const float *Gs, size_t Count) {
    if constexpr (Max > 1)
      if (Vecs < Max)
        return weightTileUpTo<Max - 1>(Vecs, Tile, Xt, Offs, Gs, Count);
    weightTile<Max>(Tile, Xt, Offs, Gs, Count);
  }

  /// dB[O] and dW[O, C, T]: one term per position P with a nonzero
  /// upstream gradient, by ascending sample, then ascending P, onto the
  /// current values.
  static CONV_INLINE void weightGrad(const Geometry &G, const float *X,
                                     const float *Up, float *DW,
                                     float *DB) {
    const size_t Cin = G.Cin, K = G.K;
    const size_t Vecs = (K * Cin + N - 1) / N, RowLen = Vecs * N;
    const Padded P(G, 1);
    // [Width, Cin]: padded row Start + K/2 + P holds position P's
    // channels, so tap T of position P reads row Start + P + T. N floats
    // of slack cover the lanes of the last vector past K * Cin.
    std::vector<float> Xt(P.Width * Cin + N, 0.0f);
    for (size_t S = 0; S < G.Samples; ++S) {
      float *Dst = Xt.data() + (P.Start[S] + K / 2) * Cin;
      const float *Src = X + G.Offsets[S];
      for (size_t Q = 0, L = sampleLength(G, S); Q < L; ++Q)
        for (size_t C = 0; C < Cin; ++C)
          Dst[Q * Cin + C] = Src[C * G.Total + Q];
    }
    // dW as [Cout, RowLen], each row [T, C] flattened, from its current
    // values.
    std::vector<float> Wg(G.Cout * RowLen, 0.0f);
    for (size_t O = 0; O < G.Cout; ++O)
      for (size_t C = 0; C < Cin; ++C)
        for (size_t T = 0; T < K; ++T)
          Wg[O * RowLen + T * Cin + C] = DW[(O * Cin + C) * K + T];

    // The nonzero upstream terms of one output channel, gathered without
    // a branch.
    std::vector<size_t> Offs(G.Total);
    std::vector<float> Gs(G.Total);
    for (size_t O = 0; O < G.Cout; ++O) {
      size_t Count = 0;
      for (size_t S = 0; S < G.Samples; ++S) {
        const float *URow = Up + O * G.Total + G.Offsets[S];
        for (size_t Q = 0, L = sampleLength(G, S); Q < L; ++Q) {
          Offs[Count] = (P.Start[S] + Q) * Cin;
          Gs[Count] = URow[Q];
          Count += URow[Q] != 0.0f;
        }
      }
      float Bias = DB[O];
      for (size_t E = 0; E < Count; ++E)
        Bias += Gs[E];
      DB[O] = Bias;
      for (size_t V0 = 0; V0 < Vecs; V0 += MaxVecs)
        weightTileUpTo<MaxVecs>(std::min(MaxVecs, Vecs - V0),
                                Wg.data() + O * RowLen + V0 * N,
                                Xt.data() + V0 * N, Offs.data(), Gs.data(),
                                Count);
    }
    for (size_t O = 0; O < G.Cout; ++O)
      for (size_t C = 0; C < Cin; ++C)
        for (size_t T = 0; T < K; ++T)
          DW[(O * Cin + C) * K + T] = Wg[O * RowLen + T * Cin + C];
  }

  /// dX[C, Q]: one term per (O, P) with P + T - K/2 = Q, by ascending O,
  /// then ascending P, onto the current values. The upstream gradient
  /// sits K/2 columns into each padded segment, so with the taps
  /// reversed (T' = K - 1 - T, ascending as P ascends) input position Q
  /// reads column Q + T', as in the forward.
  static CONV_INLINE void inputGrad(const Geometry &G, const float *W,
                                    const float *Up, float *DX) {
    const Padded P(G, Tile);
    const size_t Blocks = (G.Cin + TileChans - 1) / TileChans;
    std::vector<float> Gp(G.Cout * P.Width, 0.0f);
    P.pack(Up, G.Cout, Gp.data(), G.K / 2);
    std::vector<float> DXp(Blocks * TileChans * P.Width, 0.0f);
    P.pack(DX, G.Cin, DXp.data(), 0);
    correlate(P, Gp.data(), G.Cout, packWeights(G, W, true).data(), Blocks,
              DXp.data());
    P.unpack(DXp.data(), G.Cin, DX);
  }
};

// One out-of-line function per pass and instance. The 8-lane instance
// is the only code compiled for AVX2, and only when the host has it.
#if defined(__x86_64__) || defined(__i386__)
#define CUASMRL_CONV_AVX2 1
#define CONV_AVX2 __attribute__((target("avx2")))

CONV_AVX2 void forwardAvx2(const Geometry &G, const float *X, const float *W,
                           const float *B, float *Out) {
  Blocked<8>::forward(G, X, W, B, Out);
}
CONV_AVX2 void weightGradAvx2(const Geometry &G, const float *X,
                              const float *Up, float *DW, float *DB) {
  Blocked<8>::weightGrad(G, X, Up, DW, DB);
}
CONV_AVX2 void inputGradAvx2(const Geometry &G, const float *W,
                             const float *Up, float *DX) {
  Blocked<8>::inputGrad(G, W, Up, DX);
}
#endif

void forwardBaseline(const Geometry &G, const float *X, const float *W,
                     const float *B, float *Out) {
  Blocked<4>::forward(G, X, W, B, Out);
}
void weightGradBaseline(const Geometry &G, const float *X, const float *Up,
                        float *DW, float *DB) {
  Blocked<4>::weightGrad(G, X, Up, DW, DB);
}
void inputGradBaseline(const Geometry &G, const float *W, const float *Up,
                       float *DX) {
  Blocked<4>::inputGrad(G, W, Up, DX);
}

} // namespace

const std::vector<Kernels> &conv::instances() {
  static const std::vector<Kernels> All = [] {
    std::vector<Kernels> List;
#ifdef CUASMRL_CONV_AVX2
    __builtin_cpu_init();
    List.push_back({"avx2", __builtin_cpu_supports("avx2") != 0,
                    forwardAvx2, weightGradAvx2, inputGradAvx2});
#endif
    List.push_back({"baseline", true, forwardBaseline, weightGradBaseline,
                    inputGradBaseline});
    return List;
  }();
  return All;
}

const Kernels &conv::selected() {
  static const Kernels &Pick = *std::find_if(
      instances().begin(), instances().end(),
      [](const Kernels &I) { return I.Runnable; });
  return Pick;
}
