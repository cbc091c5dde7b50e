package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"stash/internal/core"
	"stash/internal/report"
)

// Error codes of the API contract (docs/API.md). They are stable
// strings clients can switch on; HTTP status codes carry the coarse
// class, the code the precise reason.
const (
	errInvalidRequest   = "invalid_request"
	errNotFound         = "not_found"
	errMethodNotAllowed = "method_not_allowed"
	errOOM              = "oom"
	errInfeasible       = "infeasible"
	errTimeout          = "timeout"
	errAuditFailed      = "audit_failed"
	errInternal         = "internal"

	// v2 job API codes.
	errQuotaExceeded = "quota_exceeded" // 429: server at its live-job quota
	errStoreFull     = "store_full"     // 429: job store full of non-evictable (active) jobs
	errDraining      = "draining"       // 503: server drain in progress, not accepting jobs
	errJobNotReady   = "job_not_ready"  // 409: result requested before the job is terminal
	errCancelled     = "cancelled"      // job error body for cancelled jobs
)

// ErrorBody is the error envelope every non-2xx response carries.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse wraps ErrorBody under the "error" key.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// HealthResponse is GET /healthz's body. Audit is only present on the
// deep probe (?deep=1).
type HealthResponse struct {
	Status string `json:"status"`

	// Audit summarizes the deep probe's invariant run: how many checks
	// the bounded audit slice evaluated and which (if any) failed. A
	// passing deep probe always reports "violations": [].
	Audit *AuditSummary `json:"audit,omitempty"`
}

// AuditSummary is the deep health probe's audit outcome.
type AuditSummary struct {
	Checks     int      `json:"checks"`
	Violations []string `json:"violations"`
}

// ProfileRequest is POST /v1/profile's body: one (model, instance,
// batch) workload to characterize.
type ProfileRequest struct {
	// Model is any name dnn.Resolve accepts: the Table II zoo names plus
	// resnet<N> (18/34/50/101/152) and vgg<N> (11/13/16/19). Required.
	Model string `json:"model"`

	// Instance is a Table I catalog name (cloud.ByName). Required.
	Instance string `json:"instance"`

	// Batch is the per-GPU batch size; 0 defaults to 32 (the CLI
	// default).
	Batch int `json:"batch,omitempty"`

	// Nodes optionally re-measures the network stall at a different
	// split than the default 2 (must divide the instance's GPU count).
	Nodes int `json:"nodes,omitempty"`
}

// ICStallJSON mirrors core.ICStall with durations in seconds.
type ICStallJSON struct {
	SingleGPUSeconds float64 `json:"single_gpu_seconds"`
	AllGPUSeconds    float64 `json:"all_gpu_seconds"`
	StallSeconds     float64 `json:"stall_seconds"`
	StallPct         float64 `json:"stall_pct"`
}

// DataStallsJSON mirrors core.DataStalls with durations in seconds.
type DataStallsJSON struct {
	SyntheticSeconds  float64 `json:"synthetic_seconds"`
	ColdCacheSeconds  float64 `json:"cold_cache_seconds"`
	WarmCacheSeconds  float64 `json:"warm_cache_seconds"`
	PrepStallSeconds  float64 `json:"prep_stall_seconds"`
	FetchStallSeconds float64 `json:"fetch_stall_seconds"`
	PrepPct           float64 `json:"prep_pct"`
	FetchPct          float64 `json:"fetch_pct"`
}

// NWStallJSON mirrors core.NWStall with durations in seconds.
type NWStallJSON struct {
	Nodes                 int     `json:"nodes"`
	SingleInstanceSeconds float64 `json:"single_instance_seconds"`
	MultiInstanceSeconds  float64 `json:"multi_instance_seconds"`
	StallSeconds          float64 `json:"stall_seconds"`
	StallPct              float64 `json:"stall_pct"`
}

// EpochJSON mirrors core.EpochEstimate with durations in seconds.
type EpochJSON struct {
	Instance            string  `json:"instance"`
	Nodes               int     `json:"nodes"`
	WorldSize           int     `json:"world_size"`
	PerIterationSeconds float64 `json:"per_iteration_seconds"`
	WarmIterationSecs   float64 `json:"warm_iteration_seconds"`
	ColdIterationSecs   float64 `json:"cold_iteration_seconds"`
	IterationsPerEpoch  int     `json:"iterations_per_epoch"`
	TimeSeconds         float64 `json:"time_seconds"`
	CostUSD             float64 `json:"cost_usd"`
}

// ProfileResponse is POST /v1/profile's body: the four stalls, the
// epoch estimate, and the same rendered text the cmd/stash CLI prints
// (the golden tests pin them equal).
type ProfileResponse struct {
	Model    string `json:"model"`
	Instance string `json:"instance"`
	Batch    int    `json:"batch"`

	Interconnect ICStallJSON    `json:"interconnect"`
	Data         DataStallsJSON `json:"data"`

	// Network is omitted for single-GPU and odd-GPU instances, where
	// step 5's two-way split does not exist.
	Network *NWStallJSON `json:"network,omitempty"`

	Epoch EpochJSON `json:"epoch"`

	GPUMemoryUtilizationPct float64 `json:"gpu_memory_utilization_pct"`

	// Rendered is core.Report's plain-text rendering, byte-identical to
	// the cmd/stash CLI output for the same workload.
	Rendered string `json:"rendered"`
}

// BlameRequest is POST /v1/blame's body: one workload to trace and
// attribute — for every all-reduce barrier, the last-arriving worker is
// charged the comm-wait it caused the others (core.BlameContext).
type BlameRequest struct {
	// Model is any name dnn.Resolve accepts, as in ProfileRequest. Required.
	Model string `json:"model"`

	// Instance is a Table I catalog name (cloud.ByName). Required.
	Instance string `json:"instance"`

	// Batch is the per-GPU batch size; 0 defaults to 32.
	Batch int `json:"batch,omitempty"`

	// Nodes spreads the GPUs across network-connected machines (must
	// divide the instance's GPU count); 0 runs a single instance.
	Nodes int `json:"nodes,omitempty"`

	// StragglerRank, when set, injects a synthetic straggler at that
	// rank, slowed by StragglerScale (default 1.5 when 0). Omitting the
	// rank attributes the uninstrumented run; setting a scale > 1
	// without a rank is an error.
	StragglerRank  *int    `json:"straggler_rank,omitempty"`
	StragglerScale float64 `json:"straggler_scale,omitempty"`
}

// WorkerBlameJSON is one rank's row of the blame table, worst offender
// first, mirroring core.WorkerBlameRow with durations in seconds.
type WorkerBlameJSON struct {
	Rank             int     `json:"rank"`
	BlamedSeconds    float64 `json:"blamed_seconds"`
	BlamedPct        float64 `json:"blamed_pct"`
	SelfWaitSeconds  float64 `json:"self_wait_seconds"`
	FrontierBarriers int     `json:"frontier_barriers"`
}

// BlameResponse is POST /v1/blame's body: the attribution totals (which
// conserve exactly: attributed + unattributed == total) and the ranked
// per-worker table, plus the same rendered text cmd/stash -blame
// prints.
type BlameResponse struct {
	Model    string `json:"model"`
	Instance string `json:"instance"`
	Batch    int    `json:"batch"`
	Nodes    int    `json:"nodes"`

	WorldSize  int `json:"world_size"`
	Iterations int `json:"iterations"`

	// StragglerRank is -1 when no straggler was injected.
	StragglerRank  int     `json:"straggler_rank"`
	StragglerScale float64 `json:"straggler_scale"`

	Barriers     int `json:"barriers"`
	TiedBarriers int `json:"tied_barriers"`

	TotalCommWaitSeconds float64 `json:"total_comm_wait_seconds"`
	AttributedSeconds    float64 `json:"attributed_seconds"`
	UnattributedSeconds  float64 `json:"unattributed_seconds"`

	Workers []WorkerBlameJSON `json:"workers"`

	// Rendered is core.BlameReport's plain-text rendering,
	// byte-identical to cmd/stash -blame output for the same workload.
	Rendered string `json:"rendered"`
}

// RecommendRequest is POST /v1/recommend's body: a workload plus the
// constraints of core.Constraints, durations expressed in seconds.
type RecommendRequest struct {
	// Model and Batch define the workload (Batch 0 defaults to 32).
	Model string `json:"model"`
	Batch int    `json:"batch,omitempty"`

	// MaxEpochSeconds is the per-epoch deadline; 0 means none.
	MaxEpochSeconds float64 `json:"max_epoch_seconds,omitempty"`

	// MaxCostPerEpoch is the per-epoch budget in USD; 0 means none.
	MaxCostPerEpoch float64 `json:"max_cost_per_epoch,omitempty"`

	// Families restricts instance families; empty allows P2 and P3.
	Families []string `json:"families,omitempty"`

	// MaxNodes caps network-connected instances; 0 means 2.
	MaxNodes int `json:"max_nodes,omitempty"`
}

// CandidateJSON is one feasible configuration in a recommendation.
type CandidateJSON struct {
	Instance   string    `json:"instance"`
	Nodes      int       `json:"nodes"`
	Epoch      EpochJSON `json:"epoch"`
	ICStallPct float64   `json:"ic_stall_pct"`
	Notes      []string  `json:"notes,omitempty"`
}

// RecommendResponse is POST /v1/recommend's body. Candidates are
// cheapest-first; Cheapest and Fastest index into them.
type RecommendResponse struct {
	Model      string          `json:"model"`
	Batch      int             `json:"batch"`
	Candidates []CandidateJSON `json:"candidates"`
	Cheapest   int             `json:"cheapest"`
	Fastest    int             `json:"fastest"`

	// Rejected maps configuration labels to why they were excluded
	// (OOM, over deadline, over budget). JSON object keys render
	// sorted, so the response stays byte-stable.
	Rejected map[string]string `json:"rejected,omitempty"`

	ModelAdvice string `json:"model_advice"`
}

// ExperimentInfo is one registry entry in GET /v1/experiments.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// ExperimentListResponse is GET /v1/experiments's body, in paper order.
type ExperimentListResponse struct {
	Experiments []ExperimentInfo `json:"experiments"`
}

// ExperimentResponse is GET /v1/experiments/{id}'s body: the artifact's
// tables as structured data (report.Table's JSON encoding).
type ExperimentResponse struct {
	ID     string          `json:"id"`
	Title  string          `json:"title"`
	Tables []*report.Table `json:"tables"`
}

// JobCreateRequest is POST /v2/jobs's body: one asynchronous unit of
// work. Exactly the spec matching "type" must be present.
type JobCreateRequest struct {
	// Type selects the job class: "profile", "recommend", "blame" or
	// "experiments". Required.
	Type string `json:"type"`

	// Profile is the workload for a profile job — the same body as
	// POST /v1/profile.
	Profile *ProfileRequest `json:"profile,omitempty"`

	// Recommend is the workload for a recommend job — the same body as
	// POST /v1/recommend.
	Recommend *RecommendRequest `json:"recommend,omitempty"`

	// Blame is the workload for a blame job — the same body as
	// POST /v1/blame.
	Blame *BlameRequest `json:"blame,omitempty"`

	// Experiments selects artifacts for an experiments job.
	Experiments *ExperimentsJobSpec `json:"experiments,omitempty"`
}

// ExperimentsJobSpec selects which paper artifacts an experiments job
// runs. An empty/omitted ids list means the full registry sweep (all
// 26 artifacts — the paper's complete scenario grid).
type ExperimentsJobSpec struct {
	IDs []string `json:"ids,omitempty"`
}

// JobProgress is the cells-completed accounting of one job. Done is
// monotonically non-decreasing; Total grows as sweeps announce their
// cell counts (an experiments job learns each panel's size as the
// panel starts), so Done == Total only on a completed job.
type JobProgress struct {
	CellsDone  int64 `json:"cells_done"`
	CellsTotal int64 `json:"cells_total"`
}

// JobStatus is the v2 job resource: POST /v2/jobs and
// GET /v2/jobs/{id} bodies, and the SSE "status" event payload. It
// deliberately carries no wall-clock timestamps, keeping every body
// byte-stable for the docs verifier.
type JobStatus struct {
	ID       string      `json:"id"`
	Type     string      `json:"type"`
	State    string      `json:"state"`
	Progress JobProgress `json:"progress"`

	// Partials lists the labels of partial results that have settled so
	// far (experiment ids, in completion order). The full payloads
	// replay over GET /v2/jobs/{id}/events.
	Partials []string `json:"partials,omitempty"`

	// Error is set on failed and cancelled jobs; its code/message are
	// exactly what the synchronous v1 call would have returned (or
	// "cancelled" for cancellations).
	Error *ErrorBody `json:"error,omitempty"`
}

// JobListResponse is GET /v2/jobs's body: the retained jobs, oldest
// first.
type JobListResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// JobExperimentsResult is a done experiments job's terminal result:
// every requested artifact's response, in request order. Each entry is
// byte-identical to the synchronous GET /v1/experiments/{id} body for
// the same server configuration.
type JobExperimentsResult struct {
	Experiments []*ExperimentResponse `json:"experiments"`
}

// secs converts a duration to float seconds for the wire format.
func secs(d time.Duration) float64 { return d.Seconds() }

// toICStallJSON converts the core measurement to wire format.
func toICStallJSON(s core.ICStall) ICStallJSON {
	return ICStallJSON{
		SingleGPUSeconds: secs(s.SingleGPU),
		AllGPUSeconds:    secs(s.AllGPU),
		StallSeconds:     secs(s.Stall),
		StallPct:         s.Pct,
	}
}

// toDataStallsJSON converts the core measurement to wire format.
func toDataStallsJSON(s core.DataStalls) DataStallsJSON {
	return DataStallsJSON{
		SyntheticSeconds:  secs(s.Synthetic),
		ColdCacheSeconds:  secs(s.ColdCache),
		WarmCacheSeconds:  secs(s.WarmCache),
		PrepStallSeconds:  secs(s.PrepStall),
		FetchStallSeconds: secs(s.FetchStall),
		PrepPct:           s.PrepPct,
		FetchPct:          s.FetchPct,
	}
}

// toNWStallJSON converts the core measurement to wire format.
func toNWStallJSON(s core.NWStall) NWStallJSON {
	return NWStallJSON{
		Nodes:                 s.Nodes,
		SingleInstanceSeconds: secs(s.SingleInstance),
		MultiInstanceSeconds:  secs(s.MultiInstance),
		StallSeconds:          secs(s.Stall),
		StallPct:              s.Pct,
	}
}

// toEpochJSON converts the core estimate to wire format.
func toEpochJSON(e core.EpochEstimate) EpochJSON {
	return EpochJSON{
		Instance:            e.Instance,
		Nodes:               e.Nodes,
		WorldSize:           e.WorldSize,
		PerIterationSeconds: secs(e.PerIteration),
		WarmIterationSecs:   secs(e.WarmIteration),
		ColdIterationSecs:   secs(e.ColdIteration),
		IterationsPerEpoch:  e.Iterations,
		TimeSeconds:         secs(e.Time),
		CostUSD:             e.Cost,
	}
}

// encodeJSON renders v exactly as writeJSON would put it on the wire
// (compact, HTML escaping off, trailing newline). The v2 job store
// persists these bytes as a job's replayable result, which is what
// makes a job's output byte-identical to the synchronous v1 response
// for the same request.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
	return buf.Bytes()
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(encodeJSON(v))
}

// writeError writes the API's JSON error envelope.
func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, ErrorResponse{Error: ErrorBody{Code: code, Message: message}})
}

// apiError is a handler-layer error carrying the HTTP status and the
// stable error code of the envelope. The shared compute functions
// return it so the v1 handlers and the v2 job executor map failures
// identically.
type apiError struct {
	status  int
	code    string
	message string
}

func newAPIError(status int, code, message string) *apiError {
	return &apiError{status: status, code: code, message: message}
}

// envelope renders the error as the wire-format ErrorResponse.
func (e *apiError) envelope() ErrorResponse {
	return ErrorResponse{Error: ErrorBody{Code: e.code, Message: e.message}}
}

// errToAPI maps an error from the profiling stack to the API error
// contract: expired deadlines are 504, OOM and infeasible constraints
// are 422 (the request was well-formed but cannot be satisfied),
// everything else is a 500. Both the v1 handlers and the v2 job
// executor map through here, so a job that fails persists exactly the
// error body its synchronous twin would have returned.
func errToAPI(err error) *apiError {
	var oom *core.OOMError
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return newAPIError(http.StatusGatewayTimeout, errTimeout,
			"request deadline expired during simulation: "+err.Error())
	case errors.As(err, &oom):
		return newAPIError(http.StatusUnprocessableEntity, errOOM, err.Error())
	case errors.Is(err, core.ErrNoFeasibleConfig):
		return newAPIError(http.StatusUnprocessableEntity, errInfeasible, err.Error())
	case errors.Is(err, core.ErrStragglerScale):
		// The scale passed the handler's checks but is too large for
		// the simulated clock on this model and world.
		return newAPIError(http.StatusBadRequest, errInvalidRequest, err.Error())
	default:
		return newAPIError(http.StatusInternalServerError, errInternal, err.Error())
	}
}
