// Univariate probability density building block of the uncertainty model.
//
// A multivariate uncertain object (Definition 1 of the paper) is represented
// as a product of per-dimension pdfs over an axis-aligned box region; all
// formulas the paper relies on (Eqs. 2-6, Lemma 3, Theorem 3) consume only
// per-dimension first and second moments, which every Pdf exposes in closed
// form.
#ifndef UCLUST_UNCERTAIN_PDF_H_
#define UCLUST_UNCERTAIN_PDF_H_

#include <memory>
#include <string>

#include "common/rng.h"

namespace uclust::uncertain {

/// E[X] and E[X^2] of a univariate pdf. Each pdf type computes them from its
/// stored parameters in one static Moments() function, which its
/// constructor and accessors and the .ubin record decoder
/// (io/dataset_reader.h) all run, so the two paths agree bit for bit.
struct PdfMoments {
  double mean = 0.0;
  double second_moment = 0.0;

  /// E[X^2] - E[X]^2, clamped at 0 against floating-point cancellation.
  double variance() const {
    const double v = second_moment - mean * mean;
    return v > 0.0 ? v : 0.0;
  }
};

/// Abstract univariate pdf with bounded support and analytic moments.
///
/// Implementations are immutable after construction and safe to share across
/// threads and objects.
class Pdf {
 public:
  virtual ~Pdf();

  /// Expected value E[X].
  virtual double mean() const = 0;
  /// Second raw moment E[X^2].
  virtual double second_moment() const = 0;
  /// Variance E[X^2] - E[X]^2 (PdfMoments::variance, so never negative).
  double variance() const {
    return PdfMoments{mean(), second_moment()}.variance();
  }

  /// Lower end of the domain region (support of the truncated pdf).
  virtual double lower() const = 0;
  /// Upper end of the domain region.
  virtual double upper() const = 0;

  /// Density at x; zero outside [lower(), upper()].
  virtual double Density(double x) const = 0;
  /// Cumulative distribution function at x.
  virtual double Cdf(double x) const = 0;
  /// Draws one realization (always inside [lower(), upper()]).
  virtual double Sample(common::Rng* rng) const = 0;

  /// Short type tag ("uniform", "normal", ...), used in diagnostics.
  virtual const char* TypeName() const = 0;
};

/// Shared immutable pdf handle used throughout the library.
using PdfPtr = std::shared_ptr<const Pdf>;

}  // namespace uclust::uncertain

#endif  // UCLUST_UNCERTAIN_PDF_H_
