package api

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"stash/internal/cloud"
	"stash/internal/core"
	"stash/internal/dnn"
	"stash/internal/experiments"
	"stash/internal/workload"
)

// defaultBatch is the per-GPU batch size when a request omits it,
// matching the cmd/stash CLI default.
const defaultBatch = 32

// The compute* functions below are the single implementation behind
// both surfaces: the synchronous /v1 handlers call them with the
// request context, and the /v2 job executor calls them with the job's
// context. Sharing the functions — validation, defaults, error mapping
// and all — is what makes a job's persisted result byte-identical to
// the v1 response for the same request, which the docs verifier and
// TestJobResultMatchesV1 both pin.

// computeProfile validates and runs one profile request: the full
// Stash pipeline (steps 1-5) for one workload on one instance type.
func (s *Server) computeProfile(ctx context.Context, req ProfileRequest) (*ProfileResponse, *apiError) {
	if req.Model == "" || req.Instance == "" {
		return nil, newAPIError(http.StatusBadRequest, errInvalidRequest, `"model" and "instance" are required`)
	}
	if req.Batch == 0 {
		req.Batch = defaultBatch
	}
	model, err := dnn.Resolve(req.Model)
	if err != nil {
		return nil, newAPIError(http.StatusBadRequest, errInvalidRequest, err.Error())
	}
	it, err := cloud.ByName(req.Instance)
	if err != nil {
		return nil, newAPIError(http.StatusBadRequest, errInvalidRequest, err.Error())
	}
	job, err := workload.NewJob(model, req.Batch)
	if err != nil {
		return nil, newAPIError(http.StatusBadRequest, errInvalidRequest, err.Error())
	}
	if req.Nodes != 0 && (req.Nodes < 2 || it.NGPUs%req.Nodes != 0) {
		return nil, newAPIError(http.StatusBadRequest, errInvalidRequest,
			fmt.Sprintf(`"nodes" must be >= 2 and divide %s's %d GPUs, got %d`, it.Name, it.NGPUs, req.Nodes))
	}

	rep, err := s.profiler.ProfileContext(ctx, job, it)
	if err != nil {
		return nil, errToAPI(err)
	}
	resp := &ProfileResponse{
		Model:                   rep.Model,
		Instance:                rep.Instance,
		Batch:                   rep.Batch,
		Interconnect:            toICStallJSON(rep.IC),
		Data:                    toDataStallsJSON(rep.Data),
		Epoch:                   toEpochJSON(rep.Epoch),
		GPUMemoryUtilizationPct: core.MemoryUtilization(job, it),
		Rendered:                rep.String(),
	}
	if rep.NW != nil {
		nw := toNWStallJSON(*rep.NW)
		resp.Network = &nw
	}
	// A non-default split re-measures step 5 at the requested node
	// count, exactly like cmd/stash -nodes.
	if req.Nodes > 2 {
		nw, err := s.profiler.NetworkStallContext(ctx, job, it, req.Nodes)
		if err != nil {
			return nil, errToAPI(err)
		}
		j := toNWStallJSON(nw)
		resp.Network = &j
	}
	return resp, nil
}

// computeBlame validates and runs one blame request: a traced
// synthetic training run whose per-barrier frontier attribution names
// the worker responsible for every other worker's comm-wait.
func (s *Server) computeBlame(ctx context.Context, req BlameRequest) (*BlameResponse, *apiError) {
	if req.Model == "" || req.Instance == "" {
		return nil, newAPIError(http.StatusBadRequest, errInvalidRequest, `"model" and "instance" are required`)
	}
	if req.Batch == 0 {
		req.Batch = defaultBatch
	}
	model, err := dnn.Resolve(req.Model)
	if err != nil {
		return nil, newAPIError(http.StatusBadRequest, errInvalidRequest, err.Error())
	}
	it, err := cloud.ByName(req.Instance)
	if err != nil {
		return nil, newAPIError(http.StatusBadRequest, errInvalidRequest, err.Error())
	}
	job, err := workload.NewJob(model, req.Batch)
	if err != nil {
		return nil, newAPIError(http.StatusBadRequest, errInvalidRequest, err.Error())
	}
	if req.Nodes != 0 && (req.Nodes < 2 || it.NGPUs%req.Nodes != 0) {
		return nil, newAPIError(http.StatusBadRequest, errInvalidRequest,
			fmt.Sprintf(`"nodes" must be >= 2 and divide %s's %d GPUs, got %d`, it.Name, it.NGPUs, req.Nodes))
	}
	opt := core.BlameOptions{Nodes: req.Nodes, StragglerRank: -1}
	switch {
	case req.StragglerRank != nil:
		opt.StragglerRank = *req.StragglerRank
		if opt.StragglerRank < 0 || opt.StragglerRank >= it.NGPUs {
			return nil, newAPIError(http.StatusBadRequest, errInvalidRequest,
				fmt.Sprintf(`"straggler_rank" must be in [0,%d) on %s, got %d`, it.NGPUs, it.Name, opt.StragglerRank))
		}
		opt.StragglerScale = req.StragglerScale
		//lint:allow floatcmp 0 is the omitted-field sentinel, not a computed value
		if opt.StragglerScale == 0 {
			opt.StragglerScale = core.DefaultStragglerScale
		}
		if opt.StragglerScale <= 1 {
			return nil, newAPIError(http.StatusBadRequest, errInvalidRequest,
				fmt.Sprintf(`"straggler_scale" must be > 1, got %v`, opt.StragglerScale))
		}
	//lint:allow floatcmp 0 is the omitted-field sentinel, not a computed value
	case req.StragglerScale != 0:
		return nil, newAPIError(http.StatusBadRequest, errInvalidRequest,
			`"straggler_scale" requires "straggler_rank"`)
	}

	rep, err := s.profiler.BlameContext(ctx, job, it, opt)
	if err != nil {
		return nil, errToAPI(err)
	}
	s.metrics.blameRuns.Add(1)
	s.metrics.blameBarriers.Add(int64(rep.Barriers))
	if rep.Unattributed > 0 {
		s.metrics.blameUnattributed.Add(1)
	}
	resp := &BlameResponse{
		Model:                rep.Model,
		Instance:             rep.Instance,
		Batch:                rep.Batch,
		Nodes:                rep.Nodes,
		WorldSize:            rep.WorldSize,
		Iterations:           rep.Iterations,
		StragglerRank:        rep.StragglerRank,
		StragglerScale:       rep.StragglerScale,
		Barriers:             rep.Barriers,
		TiedBarriers:         rep.TiedBarriers,
		TotalCommWaitSeconds: secs(rep.TotalCommWait),
		AttributedSeconds:    secs(rep.Attributed),
		UnattributedSeconds:  secs(rep.Unattributed),
		Workers:              make([]WorkerBlameJSON, len(rep.Workers)),
		Rendered:             rep.String(),
	}
	for i, w := range rep.Workers {
		resp.Workers[i] = WorkerBlameJSON{
			Rank:             w.Rank,
			BlamedSeconds:    secs(w.Blamed),
			BlamedPct:        w.BlamedPct,
			SelfWaitSeconds:  secs(w.SelfWait),
			FrontierBarriers: w.FrontierBarriers,
		}
	}
	return resp, nil
}

// computeRecommend validates and runs one recommend request: rank
// every allowed catalog configuration for a workload under
// deadline/budget constraints.
func (s *Server) computeRecommend(ctx context.Context, req RecommendRequest) (*RecommendResponse, *apiError) {
	if req.Model == "" {
		return nil, newAPIError(http.StatusBadRequest, errInvalidRequest, `"model" is required`)
	}
	if req.Batch == 0 {
		req.Batch = defaultBatch
	}
	if req.MaxEpochSeconds < 0 || req.MaxCostPerEpoch < 0 || req.MaxNodes < 0 {
		return nil, newAPIError(http.StatusBadRequest, errInvalidRequest, "constraints must be non-negative")
	}
	model, err := dnn.Resolve(req.Model)
	if err != nil {
		return nil, newAPIError(http.StatusBadRequest, errInvalidRequest, err.Error())
	}
	job, err := workload.NewJob(model, req.Batch)
	if err != nil {
		return nil, newAPIError(http.StatusBadRequest, errInvalidRequest, err.Error())
	}

	rec, err := s.profiler.RecommendContext(ctx, job, core.Constraints{
		MaxEpochTime:    time.Duration(req.MaxEpochSeconds * float64(time.Second)),
		MaxCostPerEpoch: req.MaxCostPerEpoch,
		Families:        req.Families,
		MaxNodes:        req.MaxNodes,
	})
	if err != nil {
		return nil, errToAPI(err)
	}
	resp := &RecommendResponse{
		Model:       job.Model.Name,
		Batch:       job.BatchPerGPU,
		Candidates:  make([]CandidateJSON, len(rec.Candidates)),
		Cheapest:    rec.Cheapest,
		Fastest:     rec.Fastest,
		Rejected:    rec.Rejected,
		ModelAdvice: rec.ModelAdvice,
	}
	for i, c := range rec.Candidates {
		resp.Candidates[i] = CandidateJSON{
			Instance:   c.Instance,
			Nodes:      c.Nodes,
			Epoch:      toEpochJSON(c.Estimate),
			ICStallPct: c.ICStallPct,
			Notes:      c.Notes,
		}
	}
	return resp, nil
}

// computeExperiment runs one paper artifact and returns its tables as
// structured data. The simulator is deterministic, so a given server
// configuration always returns identical bytes for the same id.
func (s *Server) computeExperiment(ctx context.Context, id string) (*ExperimentResponse, *apiError) {
	exp, err := experiments.ByID(id)
	if err != nil {
		return nil, newAPIError(http.StatusNotFound, errNotFound, err.Error())
	}
	tables, err := exp.Run(s.expCfg.WithContext(ctx))
	if err != nil {
		return nil, errToAPI(err)
	}
	return &ExperimentResponse{ID: exp.ID, Title: exp.Title, Tables: tables}, nil
}

// handleProfile serves POST /v1/profile.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	var req ProfileRequest
	if aerr := decode(w, r, &req); aerr != nil {
		writeJSON(w, aerr.status, aerr.envelope())
		return
	}
	resp, aerr := s.computeProfile(r.Context(), req)
	if aerr != nil {
		writeJSON(w, aerr.status, aerr.envelope())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleBlame serves POST /v1/blame.
func (s *Server) handleBlame(w http.ResponseWriter, r *http.Request) {
	var req BlameRequest
	if aerr := decode(w, r, &req); aerr != nil {
		writeJSON(w, aerr.status, aerr.envelope())
		return
	}
	resp, aerr := s.computeBlame(r.Context(), req)
	if aerr != nil {
		writeJSON(w, aerr.status, aerr.envelope())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRecommend serves POST /v1/recommend.
func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req RecommendRequest
	if aerr := decode(w, r, &req); aerr != nil {
		writeJSON(w, aerr.status, aerr.envelope())
		return
	}
	resp, aerr := s.computeRecommend(r.Context(), req)
	if aerr != nil {
		writeJSON(w, aerr.status, aerr.envelope())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleExperimentList serves GET /v1/experiments: the registry of the
// paper artifacts, in paper order.
func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	reg := experiments.Registry()
	resp := ExperimentListResponse{Experiments: make([]ExperimentInfo, len(reg))}
	for i, e := range reg {
		resp.Experiments[i] = ExperimentInfo{ID: e.ID, Title: e.Title}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleExperimentRun serves GET /v1/experiments/{id}.
func (s *Server) handleExperimentRun(w http.ResponseWriter, r *http.Request) {
	resp, aerr := s.computeExperiment(r.Context(), r.PathValue("id"))
	if aerr != nil {
		writeJSON(w, aerr.status, aerr.envelope())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
