"""ARIMA(p, d, q) estimation and forecasting, from scratch.

The paper (§IV-A) fits ARIMA models to each family's geolocation-distance
series, trains on the first half and predicts the rest.  statsmodels is
not available in this environment, so this module implements the textbook
conditional-sum-of-squares (CSS) estimator:

* difference the series ``d`` times;
* estimate the ARMA(p, q) parameters of the differenced series by
  minimising the sum of squared one-step-ahead innovations, starting from
  Hannan-Rissanen initial values (:mod:`repro.timeseries.hannan_rissanen`);
* forecast recursively, re-integrating the differenced predictions.

The estimator is validated in the test suite against synthetic AR/MA
processes with known coefficients.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..obs import registry as _obs_registry
from .differencing import difference, integrate_forecast
from .hannan_rissanen import hannan_rissanen

__all__ = ["ARIMA", "ARIMAFit", "load_backend"]

#: scipy's ``optimize`` and ``signal`` modules and the fast all-pole
#: filter, bound by :func:`load_backend` on the first fit or forecast.
#: Importing scipy costs more than the rest of the package together,
#: and most processes (serving, scale-out batteries) never fit a model.
optimize = None
signal = None
_iir_all_pole = None
_BACKEND_LOCK = threading.Lock()


def load_backend() -> None:
    """Import the scipy backend once; later calls return immediately.

    Every fit and forecast entry point calls this first, so callers
    never need to.  The exception is a fork fan-out that fits models:
    call it in the parent before forking, or every fresh worker pays
    the import again.  The one-time cost runs under the
    ``timeseries.load_backend`` stage span.
    """
    global optimize, signal, _iir_all_pole
    if _iir_all_pole is not None:
        return
    with _BACKEND_LOCK:
        if _iir_all_pole is not None:
            return
        with _obs_registry().span("timeseries.load_backend"):
            from scipy import optimize as _optimize
            from scipy import signal as _signal

            optimize, signal = _optimize, _signal
            # Bound last: the unlocked check above reads it as the flag.
            _iir_all_pole = _make_iir_all_pole()


def _make_iir_all_pole():
    """Fast all-pole IIR filter ``1 / a(B)`` with zero initial conditions.

    ``scipy.signal.lfilter(b, a, x)`` with ``zi=None`` dispatches straight
    to ``_sigtools._linear_filter`` after argument validation, so calling
    the C routine directly is bitwise-identical and skips ~30 µs of Python
    overhead per call — which matters inside the CSS optimiser, where the
    filter runs thousands of times per fit.  The private entry point is
    probed once, when :func:`load_backend` first runs; any surprise falls
    back to the public API.
    """
    b = np.array([1.0])
    try:
        from scipy.signal import _sigtools

        probe_a = np.array([1.0, 0.5, -0.25])
        probe_x = np.array([1.0, -2.0, 3.0, 0.5])
        if np.array_equal(
            _sigtools._linear_filter(b, probe_a, probe_x, -1),
            signal.lfilter(b, probe_a, probe_x),
        ):
            return lambda a, x: _sigtools._linear_filter(b, a, x, -1)
    except Exception:
        pass
    return lambda a, x: signal.lfilter(b, a, x)


def _css_residuals(y: np.ndarray, const: float, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """One-step-ahead innovations of an ARMA model, conditional on zeros.

    The recursion starts at ``t = p`` with pre-sample innovations fixed at
    zero (the "conditional" in CSS).

    This sits inside the CSS optimiser's objective, so it is fully
    vectorised: the AR part is a handful of shifted-slice updates, and
    the MA recursion ``eps[t] = z[t] - theta · eps[t-1..t-q]`` is exactly
    an IIR filter with denominator ``[1, theta]``, evaluated in C by
    :func:`scipy.signal.lfilter` (zero initial conditions match the
    conditional pre-sample convention).
    """
    p = phi.size
    q = theta.size
    n = y.size
    # z[t] = y[t] - const - sum_i phi[i] * y[t-1-i] for t >= p; the first
    # p entries are pinned to zero so the innovations there stay zero.
    z = y - const
    for i in range(p):
        z[p:] -= phi[i] * y[p - 1 - i : n - 1 - i]
    z[:p] = 0.0
    if q == 0:
        return z
    load_backend()
    return _iir_all_pole(np.concatenate(([1.0], theta)), z)


def _min_root_modulus(coeffs: np.ndarray) -> float:
    """Smallest ``|z|`` over the roots of ``1 - c1 z - ... - cp z^p``.

    Degree ≤ 2 (every order the pipeline searches) is solved in closed
    form — the quadratic uses the numerically stable ``q``-formula plus
    the root product ``|z1 z2| = 1/|c2|``, so neither root loses digits
    to cancellation.  Higher degrees fall back to the companion-matrix
    eigenvalues (``np.roots``), exactly the original path.  Returns
    ``inf`` when the polynomial has no roots (all coefficients zero),
    matching ``np.roots`` returning an empty array.
    """
    # np.roots trims leading zeros of the reversed polynomial, i.e. the
    # highest-order coefficients here; mirror that so the degenerate
    # cases (c2 == 0, all zeros) agree exactly.
    m = coeffs.size
    while m and coeffs[m - 1] == 0.0:
        m -= 1
    if m == 0:
        return float("inf")
    if m == 1:
        # Single root 1/c1 — identical to the 1x1 companion eigenvalue.
        return abs(1.0 / float(coeffs[0]))
    if m == 2:
        # Roots of c2 z^2 + c1 z - 1 = 0.
        c1 = float(coeffs[0])
        c2 = float(coeffs[1])
        disc = c1 * c1 + 4.0 * c2
        if disc < 0.0:
            # Conjugate pair: |z|^2 = |product| = 1/|c2|.
            return float(np.sqrt(1.0 / abs(c2)))
        sq = float(np.sqrt(disc))
        qq = -0.5 * (c1 + (sq if c1 >= 0.0 else -sq))
        # qq == 0 requires c1 == 0 and disc == 0, i.e. c2 == 0 — already
        # reduced to the linear case above.
        return min(abs(qq / c2), abs(1.0 / qq))
    poly = np.concatenate(([1.0], -coeffs[:m]))
    roots = np.roots(poly[::-1])
    return float(np.min(np.abs(roots)))


def _instability(coeffs: np.ndarray) -> float:
    """Violation of the stationarity/invertibility constraint.

    Returns 0 when every root of ``1 - c1 z - ... - cp z^p`` lies outside
    a small safety margin of the unit circle, and grows quadratically as
    roots move inside.  The CSS objective scales this *multiplicatively*
    — an additive penalty would drown in the sum-of-squares magnitude
    and let the optimiser pick explosive recursions.
    """
    if coeffs.size == 0:
        return 0.0
    min_mod = _min_root_modulus(coeffs)
    if min_mod >= 1.02:
        return 0.0
    return (1.02 - min_mod) ** 2


@dataclass(frozen=True)
class ARIMAFit:
    """A fitted ARIMA model: orders, parameters and training diagnostics."""

    order: tuple[int, int, int]
    const: float
    phi: np.ndarray
    theta: np.ndarray
    sigma2: float
    n_obs: int
    loglike: float
    train_tail: np.ndarray = field(repr=False)  # last values needed to forecast
    diff_tail: np.ndarray = field(repr=False)   # last d original-scale values per level
    eps_tail: np.ndarray = field(repr=False)    # last q innovations

    @property
    def aic(self) -> float:
        k = 1 + self.phi.size + self.theta.size + 1  # const + AR + MA + sigma2
        return 2.0 * k - 2.0 * self.loglike

    @property
    def bic(self) -> float:
        k = 1 + self.phi.size + self.theta.size + 1
        return k * float(np.log(max(self.n_obs, 1))) - 2.0 * self.loglike

    def residual_diagnostics(self, series, nlags: int = 10) -> tuple[float, float]:
        """Ljung-Box whiteness test on the fit's in-sample residuals.

        ``series`` must be the data the model was fitted on.  Returns
        ``(Q statistic, p-value)``; a small p-value means the model left
        structure in the residuals (underfitting).
        """
        from .acf import ljung_box
        from .differencing import difference

        y = np.asarray(series, dtype=float)
        p, d, q = self.order
        if d:
            y = difference(y, d)
        eps = _css_residuals(y, self.const, self.phi, self.theta)[max(p, 1):]
        return ljung_box(eps, nlags=nlags, fitted_params=p + q)

    # -- forecasting ---------------------------------------------------

    def forecast_interval(
        self, steps: int, z: float = 1.96
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Point forecast with a ±z·σ_h prediction band.

        Forecast-error variance grows with the horizon through the
        psi-weights (MA(∞) representation); this computes the first
        ``steps`` psi-weights by recursion and returns ``(point, lower,
        upper)`` arrays.  Bands assume Gaussian innovations.
        """
        point = self.forecast(steps)  # loads the backend
        # psi-weights are the impulse response of theta(B)/phi(B).
        impulse = np.zeros(steps)
        impulse[0] = 1.0
        psi = signal.lfilter(
            np.concatenate(([1.0], self.theta)),
            np.concatenate(([1.0], -self.phi)),
            impulse,
        )
        var = self.sigma2 * np.cumsum(psi**2)
        d = self.order[1]
        if d:
            # Differenced forecasts integrate, accumulating variance; a
            # first-order approximation integrates the psi-weights too.
            psi_int = np.cumsum(psi)
            var = self.sigma2 * np.cumsum(psi_int**2)
        half = z * np.sqrt(var)
        return point, point - half, point + half

    def forecast(self, steps: int) -> np.ndarray:
        """``steps``-ahead point forecast on the original scale.

        The recursion ``pred[h] = const + phi·pred[h-1..] + theta·eps``
        (future innovations zero) is a linear IIR filter: the MA side
        only ever touches the ``q`` stored training innovations, so it
        collapses to a short input vector, and the AR side runs in C via
        :func:`scipy.signal.lfilter` seeded from the training tail.
        """
        if steps <= 0:
            raise ValueError(f"steps must be positive, got {steps}")
        load_backend()
        p, d, q = self.order
        # MA contribution: at step h only training innovations with
        # index h-1-j < 0 survive (future ones are their zero mean).
        drive = np.full(steps, self.const)
        for j in range(q):
            reach = min(j + 1, steps)  # steps h = 0 .. j see eps_tail[h-1-j]
            drive[:reach] += self.theta[j] * self.eps_tail[np.arange(reach) - 1 - j]
        if p:
            zi = signal.lfiltic(
                [1.0], np.concatenate(([1.0], -self.phi)),
                self.train_tail[::-1][:p],
            )
            preds, _ = signal.lfilter(
                [1.0], np.concatenate(([1.0], -self.phi)), drive, zi=zi
            )
        else:
            preds = drive
        if d:
            preds = integrate_forecast(preds, self.diff_tail)
        return preds

    def rolling_forecast(self, series) -> np.ndarray:
        """One-step-ahead predictions over a continuation of the series.

        ``series`` is the *original-scale* continuation (test segment).
        The fitted coefficients stay fixed; at each step the truth is fed
        back in, exactly the paper's evaluation protocol (train on the
        first half, predict each subsequent point).  Returns an array the
        same length as ``series``.
        """
        cont = np.asarray(series, dtype=float)
        p, d, q = self.order
        n = cont.size
        if n == 0:
            return np.zeros(0)
        load_backend()
        # Truth feedback makes every quantity a known function of the
        # observed continuation, so the whole walk vectorises:
        #   w[t]        the truth differenced d times (using diff_tail as
        #               the pre-history at each level);
        #   tails[t]    the sum over levels of the previous value at that
        #               level — the re-integration constant for step t;
        #   eps[t]      = w[t] - pred_diff[t], an IIR filter in w.
        tails_sum = np.zeros(n)
        w = cont
        for level in range(d):
            with_prev = np.concatenate(([self.diff_tail[level]], w))
            tails_sum += with_prev[:n]
            w = np.diff(with_prev)
        # One-step ARMA prediction of w[t] from the (known) past.
        pred_diff = np.full(n, self.const)
        if p:
            wext = np.concatenate((self.train_tail[-p:], w))
            for i in range(p):
                pred_diff += self.phi[i] * wext[p - 1 - i : p - 1 - i + n]
        if q:
            # eps[t] = (w[t] - const - AR[t]) - theta · eps[t-1..t-q]:
            # an IIR filter seeded with the training innovations.
            z = w - pred_diff
            zi = signal.lfiltic(
                [1.0], np.concatenate(([1.0], self.theta)),
                self.eps_tail[::-1][:q],
            )
            eps, _ = signal.lfilter(
                [1.0], np.concatenate(([1.0], self.theta)), z, zi=zi
            )
            pred_diff = w - eps
        return pred_diff + tails_sum if d else pred_diff.copy()


class ARIMA:
    """ARIMA(p, d, q) estimator with a CSS objective.

    >>> fit = ARIMA(order=(2, 1, 2)).fit(series)
    >>> fit.forecast(10)
    """

    def __init__(self, order: tuple[int, int, int] = (1, 0, 0)):
        p, d, q = order
        if min(p, d, q) < 0:
            raise ValueError(f"orders must be non-negative, got {order}")
        if p == 0 and q == 0 and d == 0:
            # Degenerate but allowed: mean-only model.
            pass
        self.order = (int(p), int(d), int(q))

    def fit(self, series, maxiter: int = 500) -> ARIMAFit:
        """Fit by conditional sum of squares; returns an :class:`ARIMAFit`."""
        y_orig = np.asarray(series, dtype=float)
        d = self.order[1]
        self._check_length(y_orig.size)
        y = difference(y_orig, d) if d else y_orig.copy()
        return self._fit_differenced(y, y_orig, maxiter)

    def fit_differenced(self, diffed, original, maxiter: int = 500) -> ARIMAFit:
        """Fit when the caller already differenced ``original`` ``d`` times.

        ``diffed`` must equal ``difference(original, d)`` for this
        model's ``d``; the order search differences each candidate ``d``
        once and reuses it across every ``(p, q)`` pair, instead of
        re-differencing inside each fit.  Produces the same
        :class:`ARIMAFit` as ``fit(original)``.
        """
        y_orig = np.asarray(original, dtype=float)
        d = self.order[1]
        self._check_length(y_orig.size)
        y = np.asarray(diffed, dtype=float)
        if y.size != y_orig.size - d:
            raise ValueError(
                f"differenced series of length {y.size} does not match "
                f"original of length {y_orig.size} at d={d}"
            )
        return self._fit_differenced(y.copy(), y_orig, maxiter)

    def _check_length(self, n: int) -> None:
        p, d, q = self.order
        min_len = p + q + d + 3
        if n < min_len:
            raise ValueError(f"series of length {n} too short for ARIMA{self.order}")

    def _fit_differenced(self, y: np.ndarray, y_orig: np.ndarray, maxiter: int) -> ARIMAFit:
        load_backend()
        p, d, q = self.order
        phi0, theta0 = hannan_rissanen(y - y.mean(), p, q)
        const0 = float(y.mean()) * (1.0 - float(np.sum(phi0)))
        x0 = np.concatenate(([const0], phi0, theta0))

        # The optimiser calls the objective thousands of times, so it works
        # on the tail ``t >= p`` only: ``_css_residuals`` pins ``z[:p]`` to
        # zero and the filter's zero initial conditions make the leading
        # ``p`` innovations zero, so dropping them before the arithmetic
        # (instead of after) produces bitwise-identical residuals while
        # skipping the dead prefix.  The lag views are precomputed once.
        n = y.size
        y_tail = y[p:]
        lags = [y[p - 1 - i : n - 1 - i] for i in range(p)]
        a_full = np.empty(q + 1)
        a_full[0] = 1.0

        def objective(x: np.ndarray) -> float:
            const = x[0]
            phi = x[1 : 1 + p]
            theta = x[1 + p :]
            z = y_tail - const
            for i in range(p):
                z -= phi[i] * lags[i]
            if q:
                a_full[1:] = theta
                eps = _iir_all_pole(a_full, z)
            else:
                eps = z
            css = float(np.dot(eps, eps))
            violation = _instability(phi) + _instability(-theta)
            return css * (1.0 + 1e4 * violation)

        if x0.size == 1:
            # Mean-only model: closed form.
            best = np.array([float(y.mean())])
        else:
            result = optimize.minimize(
                objective,
                x0,
                method="Nelder-Mead",
                options={"maxiter": maxiter * max(1, x0.size), "xatol": 1e-6, "fatol": 1e-8},
            )
            best = result.x

        const = float(best[0])
        phi = np.asarray(best[1 : 1 + p], dtype=float)
        theta = np.asarray(best[1 + p :], dtype=float)
        eps = _css_residuals(y, const, phi, theta)
        n_eff = max(y.size - p, 1)
        sigma2 = float(np.dot(eps[p:], eps[p:])) / n_eff
        sigma2 = max(sigma2, 1e-12)
        loglike = -0.5 * n_eff * (np.log(2.0 * np.pi * sigma2) + 1.0)

        # Tails required for forecasting: the last d original-scale values
        # at each differencing level (level 0 = original), the last p
        # differenced values, and the last q innovations.
        diff_tail = np.empty(d)
        level = y_orig.copy()
        for lvl in range(d):
            diff_tail[lvl] = level[-1]
            level = np.diff(level)
        return ARIMAFit(
            order=self.order,
            const=const,
            phi=phi,
            theta=theta,
            sigma2=sigma2,
            n_obs=int(y.size),
            loglike=float(loglike),
            train_tail=y[-max(p, 1) :].copy(),
            diff_tail=diff_tail,
            eps_tail=eps[-q:].copy() if q else np.zeros(0),
        )
