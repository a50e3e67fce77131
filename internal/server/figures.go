package server

import (
	"fmt"
	"net/http"
	"strings"

	"gpucmp/internal/core"
)

// figure is the /figures/{id} response envelope.
type figure struct {
	Figure string `json:"figure"`
	Title  string `json:"title"`
	Scale  int    `json:"scale,omitempty"`
	Data   any    `json:"data"`
}

// handleFigure regenerates one paper artifact on demand. Every experiment
// cell goes through the scheduler, so a repeated request is served from
// the result cache and concurrent identical requests share one execution.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/figures/")
	if id == "" || strings.Contains(id, "/") {
		WriteError(w, http.StatusNotFound, codeNotFound, fmt.Errorf("want /figures/{%s}", strings.Join(core.FigureIDs(), ",")))
		return
	}
	scale, err := scaleOf(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	f, ok := core.FigureByID(id)
	if !ok {
		WriteError(w, http.StatusNotFound, codeNotFound,
			fmt.Errorf("unknown figure %q; known figures: %s", id, strings.Join(core.FigureIDs(), ", ")))
		return
	}
	devices := f.Devices()
	if devices == nil {
		scale = 0 // a compile census: problem size does not apply
	}
	data, err := f.Study(s.runner(r), devices, scale)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, codeInternal, err)
		return
	}
	WriteJSON(w, http.StatusOK, figure{Figure: id, Title: f.Title, Scale: scale, Data: data})
}
