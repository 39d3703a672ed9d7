/* One primal-dual Newton step, and the residual F_tau, in place on the
   buffers of a step workspace (boxipm.kkt._Workspace), and the other
   LAPACK calls of a solve: the primal phase's QR and the trace's inverse.

   Every LAPACK and BLAS routine is the one that scipy's f2py and Cython
   wrappers call, in the library that scipy links: this file is linked
   against it, and BLAS(name) is its symbol for the routine, both found
   when the module is built (boxipm._cstep).  The calls pass the arguments
   that scipy's wrappers pass.  Elementwise products, quotients and the
   minimum are plain loops; built without FMA contraction
   (-ffp-contract=off), each loop rounds as the numpy ufunc it stands for,
   and the minimum is exact.  boxipm.solver._step documents the step and
   boxipm.kkt._Workspace the buffers. */

#include <math.h>
#include <string.h>

typedef void dsysv_f(char *, int *, int *, double *, int *, int *, double *, int *,
                     double *, int *, int *);
typedef void dsytrs_f(char *, int *, int *, double *, int *, int *, double *, int *, int *);
typedef double dasum_f(int *, double *, int *);
typedef void daxpy_f(int *, double *, double *, int *, double *, int *);
typedef void dcopy_f(int *, double *, int *, double *, int *);
typedef void dscal_f(int *, double *, double *, int *);
typedef double ddot_f(int *, double *, int *, double *, int *);
typedef void dgemv_f(char *, int *, int *, double *, double *, int *, double *, int *,
                     double *, double *, int *);
typedef void dgeqp3_f(int *, int *, double *, int *, int *, double *, double *, int *, int *);
typedef void dormqr_f(char *, char *, int *, int *, int *, double *, int *, double *, double *,
                      int *, double *, int *, int *);
typedef void dtrtrs_f(char *, char *, char *, int *, int *, double *, int *, double *, int *,
                      int *);
typedef void dtrcon_f(char *, char *, char *, int *, double *, int *, double *, double *, int *,
                      int *);
typedef void dsytri_f(char *, int *, double *, int *, int *, double *, int *);

extern dsysv_f BLAS(dsysv);
extern dsytrs_f BLAS(dsytrs);
extern dasum_f BLAS(dasum);
extern daxpy_f BLAS(daxpy);
extern dcopy_f BLAS(dcopy);
extern dscal_f BLAS(dscal);
extern ddot_f BLAS(ddot);
extern dgemv_f BLAS(dgemv);
extern dgeqp3_f BLAS(dgeqp3);
extern dormqr_f BLAS(dormqr);
extern dtrtrs_f BLAS(dtrtrs);
extern dtrcon_f BLAS(dtrcon);
extern dsytri_f BLAS(dsytri);

/* Every call goes through this table, which a test may point elsewhere. */
typedef struct {
    dsysv_f *dsysv;
    dsytrs_f *dsytrs;
    dasum_f *dasum;
    daxpy_f *daxpy;
    dcopy_f *dcopy;
    dscal_f *dscal;
    ddot_f *ddot;
    dgemv_f *dgemv;
    dgeqp3_f *dgeqp3;
    dormqr_f *dormqr;
    dtrtrs_f *dtrtrs;
    dtrcon_f *dtrcon;
    dsytri_f *dsytri;
} boxipm_routines;

boxipm_routines boxipm_lapack_blas = {
    BLAS(dsysv), BLAS(dsytrs), BLAS(dasum), BLAS(daxpy), BLAS(dcopy), BLAS(dscal), BLAS(ddot),
    BLAS(dgemv), BLAS(dgeqp3), BLAS(dormqr), BLAS(dtrtrs), BLAS(dtrcon), BLAS(dsytri),
};

/* A workspace: its sizes, its state and its buffers.  n, m, s and
   held_limit are set when it is built; the step keeps has_factor,
   held_steps and factorizations, and writes the norms, the margin of a
   step out of the interior and the info of a failed LAPACK call. */
typedef struct {
    int n, m, held_limit;
    int has_factor, held_steps, factorizations, info;
    double s, eq_norm, comp_norm, margin;
    double *ze, *F, *mue, *ones, *sign, *dze, *t, *w, *H, *qdiag, *T, *cb, *ldu, *work;
    int *ipiv;
} boxipm_ws;

enum { BOXIPM_RESET, BOXIPM_CENTRALITY, BOXIPM_PATH };
enum {
    BOXIPM_OK, BOXIPM_G_OVERFLOW, BOXIPM_V_OVERFLOW, BOXIPM_DSYSV_INFO, BOXIPM_DSYTRS_INFO,
    BOXIPM_STEP_NONFINITE, BOXIPM_LEFT_INTERIOR, BOXIPM_ITERATE_NONFINITE
};

/* The QR of boxipm.linalg.QRFactor and the inverse of its
   symmetric_inverse, each on a d x d Fortran-ordered a, with the
   arguments of scipy's wrappers (dormqr with lwork = 1, on one column);
   each returns LAPACK's info. */
int boxipm_dgeqp3(int d, double *a, int *jpvt, double *tau, double *work, int lwork)
{
    int info;
    boxipm_lapack_blas.dgeqp3(&d, &d, a, &d, jpvt, tau, work, &lwork, &info);
    return info;
}

int boxipm_dormqr(int d, double *a, double *tau, double *c, double *work)
{
    char side = 'L', trans = 'T';
    int one = 1, info;
    boxipm_lapack_blas.dormqr(&side, &trans, &d, &one, &d, a, &d, tau, c, &d, work, &one, &info);
    return info;
}

int boxipm_dtrtrs(int d, double *a, double *b)
{
    char uplo = 'U', trans = 'N', diag = 'N';
    int one = 1, info;
    boxipm_lapack_blas.dtrtrs(&uplo, &trans, &diag, &d, &one, a, &d, b, &d, &info);
    return info;
}

int boxipm_dtrcon(int d, double *a, double *rcond, double *work, int *iwork)
{
    char norm = '1', uplo = 'U', diag = 'N';
    int info;
    boxipm_lapack_blas.dtrcon(&norm, &uplo, &diag, &d, a, &d, rcond, work, iwork, &info);
    return info;
}

int boxipm_dsytri(int d, double *a, int *ipiv, double *work)
{
    char uplo = 'U';
    int info;
    boxipm_lapack_blas.dsytri(&uplo, &d, a, &d, ipiv, work, &info);
    return info;
}

static int all_finite(const double *x, int k)
{
    int i;
    for (i = 0; i < k; i++)
        if (!isfinite(x[i]))
            return 0;
    return 1;
}

/* F_tau at z into F, mu∘e into mue, and the norms of (r1, r2) and (r3, r4):
   (r1, r2) = T z + cb by one dgemv on the C-ordered T (Fortran's T'), or
   one ddot when T is one row, as numpy's T.dot makes it, then
   (r3, r4) = mu∘e - tau as a copy and a daxpy of ones with a = -tau. */
void boxipm_eval_F(boxipm_ws *ws, double tau)
{
    boxipm_routines *r = &boxipm_lapack_blas;
    int n = ws->n, nm = n + ws->m, N = nm + 2 * n, n2 = 2 * n, one = 1, i;
    double *z = ws->ze, *mu = z + nm, *e = z + N, *r12 = ws->F, *r34 = ws->F + nm;
    double *mue = ws->mue, p1 = 1.0, zero = 0.0, a = -tau;
    char trans = 'T';
    if (nm == 1)  /* numpy's T.dot takes one row as a ddot, not a dgemv */
        r12[0] = r->ddot(&N, ws->T, &one, z, &one);
    else
        r->dgemv(&trans, &N, &nm, &p1, ws->T, &N, z, &one, &zero, r12, &one);
    r->daxpy(&nm, &p1, ws->cb, &one, r12, &one);
    for (i = 0; i < n2; i++)
        mue[i] = mu[i] * e[i];
    r->dcopy(&n2, mue, &one, r34, &one);
    r->daxpy(&n2, &a, ws->ones, &one, r34, &one);
    ws->eq_norm = sqrt(r->ddot(&nm, r12, &one, r12, &one));
    ws->comp_norm = sqrt(r->ddot(&n2, r34, &one, r34, &one));
}

/* One step of kind (BOXIPM_RESET, _CENTRALITY or _PATH) at tau; returns
   BOXIPM_OK, or the code of the rejection, with ws->margin for
   BOXIPM_LEFT_INTERIOR and ws->info for a LAPACK call's info.  The stages
   and their calls are those of boxipm.solver._step's docstring, in its
   order; the post-check of the norms is the caller's. */
int boxipm_step(boxipm_ws *ws, int kind, double tau)
{
    boxipm_routines *r = &boxipm_lapack_blas;
    int n = ws->n, m = ws->m, d = n + m, N = d + 2 * n, n2 = 2 * n, n4 = 4 * n;
    int ze_len = N + n2, one = 1, dp1 = d + 1, info = 0, i;
    int reset = kind == BOXIPM_RESET, held;
    double *ze = ws->ze, *mu = ze + d, *e = ze + N, *F = ws->F, *r34 = F + d;
    double *dz = ws->dze, *dz_mu = dz + d, *de = dz + N, *t = ws->t, *w = ws->w;
    double *H = ws->H, *sign = ws->sign, p1 = 1.0, m1 = -1.0, s = ws->s, margin;
    char uplo = 'U';

    if (kind == BOXIPM_PATH) {  /* F at the new tau, as eval_F writes it */
        double a = -tau;
        r->dcopy(&n2, ws->mue, &one, r34, &one);
        r->daxpy(&n2, &a, ws->ones, &one, r34, &one);
    }
    for (i = 0; i < N; i++)  /* (g1, -s g2, g3, g4) */
        dz[i] = sign[i] * F[i];
    held = ws->has_factor && (reset || ws->held_steps < ws->held_limit);
    if (!reset) {  /* v = ((g1 + g3/(e+x)) - g4/(e-x), -s g2) */
        for (i = 0; i < n2; i++)
            t[i] = dz_mu[i] / e[i];
        r->daxpy(&n, &p1, t, &one, dz, &one);
        r->daxpy(&n, &m1, t + n, &one, dz, &one);
    }
    if (held) {
        if (!reset) {
            if (!isfinite(r->dasum(&d, dz, &one)) && !all_finite(dz, d))
                return BOXIPM_V_OVERFLOW;
            ws->held_steps += 1;
        }
        r->dsytrs(&uplo, &d, &one, ws->ldu, &d, ws->ipiv, dz, &d, &info);
        if (info) {
            ws->info = info;
            return BOXIPM_DSYTRS_INFO;
        }
    } else {
        /* the Q block's diagonal ((Q_jj + omega) + mu_l/(e+x)) + mu_r/(e-x),
           every (d + 1)-th entry of H */
        for (i = 0; i < n2; i++)
            w[i] = mu[i] / e[i];
        r->dcopy(&n, ws->qdiag, &one, H, &dp1);
        r->daxpy(&n, &p1, w, &one, H, &dp1);
        r->daxpy(&n, &p1, w + n, &one, H, &dp1);
        if (!isfinite(r->dasum(&n, H, &dp1) + r->dasum(&d, dz, &one))) {
            /* a sum of finite terms and nonnegative w: finite or +inf */
            for (i = 0; i < n; i++)
                if (!(H[i * dp1] < INFINITY))
                    return BOXIPM_G_OVERFLOW;
            if (!all_finite(dz, d))
                return BOXIPM_V_OVERFLOW;
        }
        /* dsysv factors a copy of H, as the f2py wrapper does, with
           lwork = d; a failed call leaves no factor */
        memcpy(ws->ldu, H, sizeof(double) * d * d);
        ws->has_factor = 0;
        r->dsysv(&uplo, &d, &one, ws->ldu, &d, ws->ipiv, dz, &d, ws->work, &d, &info);
        if (info) {
            ws->info = info;
            return BOXIPM_DSYSV_INFO;
        }
        ws->has_factor = 1;
        ws->factorizations += 1;
        ws->held_steps = 0;
    }
    /* de = (dx, -dx), then dmu = g34/e - w'∘de */
    r->dcopy(&n, dz, &one, de, &one);
    r->dcopy(&n, dz, &one, de + n, &one);
    r->dscal(&n, &m1, de + n, &one);
    for (i = 0; i < n2; i++)
        dz_mu[i] = w[i] * de[i];
    r->dscal(&n2, &m1, dz_mu, &one);
    if (!reset)
        r->daxpy(&n2, &p1, t, &one, dz_mu, &one);
    r->dscal(&m, &s, dz + n, &one);  /* dlam = s (dlam/s), exactly */
    if (!isfinite(r->dasum(&N, dz, &one)) && !all_finite(dz, N))
        return BOXIPM_STEP_NONFINITE;
    r->daxpy(&ze_len, &p1, dz, &one, ze, &one);  /* (z, e) + (dz, de) */
    /* min(mu, e), NaN if any entry is, as numpy's minimum.reduce */
    margin = mu[0];
    for (i = 1; i < n4 && !isnan(margin); i++)
        if (mu[i] < margin || isnan(mu[i]))
            margin = mu[i];
    if (margin <= 0.0) {  /* a NaN margin passes on to the residual test */
        ws->margin = margin;
        return BOXIPM_LEFT_INTERIOR;
    }
    boxipm_eval_F(ws, tau);
    if (!isfinite(ws->eq_norm + ws->comp_norm))
        return BOXIPM_ITERATE_NONFINITE;
    return BOXIPM_OK;
}
