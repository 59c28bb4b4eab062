package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"wsnbcast/internal/jobs"
	"wsnbcast/internal/scenario"
)

// This file is the HTTP face of the async job subsystem
// (internal/jobs): submit a long-running study once, then poll or
// stream it instead of holding a connection open.
//
//	POST /v1/jobs                 {"kind": "sweep", "scenario": {...}} -> 202 + status
//	GET  /v1/jobs/{id}            -> status (state, done/total points)
//	GET  /v1/jobs/{id}/result     -> the merged body, byte-identical to POST /v1/{kind}
//	GET  /v1/jobs/{id}/events     -> SSE: one "point" event per finished grid
//	                                 point, then "done" or "failed"
//
// Submission is idempotent (the job id is the hash of the canonical
// document) and a job whose result is already durable completes
// instantly, so clients may re-submit freely after a disconnect or a
// server restart.

// jobSubmitRequest is the POST /v1/jobs wire format.
type jobSubmitRequest struct {
	// Kind selects the shape: "run", "scenario", "sweep" or "lifetime",
	// with the same document rules as the synchronous POST /v1/<kind>.
	Kind string `json:"kind"`
	// Scenario is the declarative scenario document.
	Scenario json.RawMessage `json:"scenario"`
}

// prepForKind returns the synchronous endpoint's shape check for a job
// kind, so a job rejects exactly the documents POST /v1/<kind> would.
func prepForKind(kind string) (func(scenario.Scenario) error, bool) {
	switch kind {
	case scenario.KindRun:
		return prepRun, true
	case scenario.KindScenario:
		return prepScenario, true
	case scenario.KindSweep:
		return prepSweep, true
	case scenario.KindLifetime:
		return prepLifetime, true
	}
	return nil, false
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.fail(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req jobSubmitRequest
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	if dec.More() {
		s.fail(w, http.StatusBadRequest, "trailing content after the job document")
		return
	}
	prep, ok := prepForKind(req.Kind)
	if !ok {
		s.fail(w, http.StatusBadRequest,
			fmt.Sprintf("unknown job kind %q (want run, scenario, sweep or lifetime)", req.Kind))
		return
	}
	if len(req.Scenario) == 0 {
		s.fail(w, http.StatusBadRequest, "job document needs a scenario")
		return
	}
	sc, err := scenario.Load(bytes.NewReader(req.Scenario))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	sc = sc.Canonical()
	if err := prep(sc); err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	pl, status, msg := s.checkLimits(req.Kind, sc)
	if status != 0 {
		s.fail(w, status, msg)
		return
	}
	st, err := s.jobs.Submit(pl)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	s.writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		s.fail(w, http.StatusNotFound, "unknown job")
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.jobs.Get(id)
	if !ok {
		s.fail(w, http.StatusNotFound, "unknown job")
		return
	}
	switch st.State {
	case jobs.StateDone:
		body, ok := s.jobs.Result(id)
		if !ok {
			s.fail(w, http.StatusInternalServerError, "job done but result unavailable")
			return
		}
		s.writeBody(w, "job", body)
	case jobs.StateFailed:
		s.fail(w, http.StatusInternalServerError, st.Error)
	default:
		// Not finished yet: point the client back at the status
		// endpoint rather than failing hard.
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusConflict,
			fmt.Sprintf("job %s: %d/%d points done", st.State, st.Done, st.Total))
	}
}

// handleJobEvents streams a job's progress as Server-Sent Events: the
// finished points replay first (in index order), then live events
// follow until the terminal "done"/"failed", which ends the stream.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	replay, ch, cancel, ok := s.jobs.Subscribe(r.PathValue("id"))
	if !ok {
		s.fail(w, http.StatusNotFound, "unknown job")
		return
	}
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// Flush errors (an underlying writer without flush support) are
	// ignored: the events still deliver when the stream ends.
	rc := http.NewResponseController(w)
	for _, e := range replay {
		if writeSSE(w, e) != nil {
			return
		}
	}
	rc.Flush()
	for {
		select {
		case e, open := <-ch:
			if !open {
				return // terminal event delivered
			}
			if writeSSE(w, e) != nil {
				return
			}
			rc.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func writeSSE(w io.Writer, e jobs.Event) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
	return err
}

// writeJSON renders v as an indented JSON document.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}
