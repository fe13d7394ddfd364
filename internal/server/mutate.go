package server

import (
	"errors"
	"fmt"
	"net/http"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/shard"
)

// Mutation endpoints: POST /add-matrix indexes a new data source online,
// POST /remove-matrix drops one. Requests are bounded by MaxBodyBytes
// like every other POST body, count toward MaxConcurrent (indexing a
// matrix embeds it, which is real work), and are tallied in the
// imgrn_mutations_total metric by operation. A mutation write-locks only
// the shard its source is placed on, so queries against the other shards
// proceed concurrently.

// AddMatrixRequest is the /add-matrix payload: a full feature matrix for
// a new data source.
type AddMatrixRequest struct {
	// Source is the new data source ID; must be non-negative and not yet
	// indexed.
	Source int `json:"source"`
	// Genes labels the columns, by catalog name or numeric ID.
	Genes []string `json:"genes"`
	// Columns[i] is the feature vector of Genes[i]; all must share length.
	Columns [][]float64 `json:"columns"`
}

// MutateResponse reports a completed mutation.
type MutateResponse struct {
	Status string `json:"status"`
	Source int    `json:"source"`
	// Shard is the shard the source is (or was) placed on.
	Shard int `json:"shard"`
	// Matrices is the database size after the mutation.
	Matrices int `json:"matrices"`
}

func (s *Server) handleAddMatrix(w http.ResponseWriter, r *http.Request) {
	var req AddMatrixRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Source < 0 {
		s.error(w, http.StatusBadRequest, fmt.Sprintf("source %d must be non-negative", req.Source))
		return
	}
	ids, err := s.resolveGenes(req.Genes)
	if err != nil {
		s.error(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Columns) != len(ids) {
		s.error(w, http.StatusBadRequest,
			fmt.Sprintf("%d gene names for %d columns", len(ids), len(req.Columns)))
		return
	}
	m, err := gene.NewMatrix(req.Source, ids, req.Columns)
	if err != nil {
		s.error(w, http.StatusBadRequest, err.Error())
		return
	}
	release, ok := s.acquire(w)
	if !ok {
		return
	}
	defer release()
	if err := s.eng.AddMatrix(m); err != nil {
		if errors.Is(err, shard.ErrSourceExists) {
			s.error(w, http.StatusConflict, err.Error())
			return
		}
		if errors.Is(err, shard.ErrMutationTooLarge) {
			s.error(w, http.StatusRequestEntityTooLarge, err.Error())
			return
		}
		s.error(w, http.StatusBadRequest, err.Error())
		return
	}
	s.met.requests.With("add-matrix").Inc()
	s.met.mutations.With("add").Inc()
	sh, _ := s.eng.Placement(req.Source)
	writeJSON(w, http.StatusOK, MutateResponse{
		Status: "ok", Source: req.Source, Shard: sh,
		Matrices: s.eng.Matrices(),
	})
}

// RemoveMatrixRequest is the /remove-matrix payload.
type RemoveMatrixRequest struct {
	// Source is the data source ID to drop.
	Source int `json:"source"`
}

func (s *Server) handleRemoveMatrix(w http.ResponseWriter, r *http.Request) {
	var req RemoveMatrixRequest
	if !s.decode(w, r, &req) {
		return
	}
	release, ok := s.acquire(w)
	if !ok {
		return
	}
	defer release()
	sh, _ := s.eng.Placement(req.Source)
	if err := s.eng.RemoveMatrix(req.Source); err != nil {
		if errors.Is(err, shard.ErrSourceNotFound) {
			s.error(w, http.StatusNotFound, err.Error())
			return
		}
		s.error(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.met.requests.With("remove-matrix").Inc()
	s.met.mutations.With("remove").Inc()
	writeJSON(w, http.StatusOK, MutateResponse{
		Status: "ok", Source: req.Source, Shard: sh,
		Matrices: s.eng.Matrices(),
	})
}
