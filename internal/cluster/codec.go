package cluster

import "github.com/imgrn/imgrn/internal/codec"

// The cluster wire on the shared codec (DESIGN.md §8.3, §15): one-pass
// readers for the /cluster/exec envelope, its frames and the
// /cluster/mutate body, and appenders writing each as json.Marshal does.
// Non-canonical input and unencodable values go to encoding/json (package
// codec), so the bytes on the wire and the decoded values are those of
// encoding/json.

func (p *WireParams) readCanonical(r *codec.Reader) bool {
	var seen uint32
	return r.Object(func(key []byte) bool {
		switch string(key) {
		case "gamma":
			return codec.Once(&seen, 1<<0) && r.Float(&p.Gamma)
		case "alpha":
			return codec.Once(&seen, 1<<1) && r.Float(&p.Alpha)
		case "samples":
			return codec.Once(&seen, 1<<2) && r.Int(&p.Samples)
		case "seed":
			return codec.Once(&seen, 1<<3) && r.Uint64(&p.Seed)
		case "analytic":
			return codec.Once(&seen, 1<<4) && r.Bool(&p.Analytic)
		case "oneSided":
			return codec.Once(&seen, 1<<5) && r.Bool(&p.OneSided)
		case "workers":
			return codec.Once(&seen, 1<<6) && r.Int(&p.Workers)
		}
		return false
	})
}

func readWireEdges(r *codec.Reader, dst *[]WireEdge) bool {
	if r.Null() {
		return true
	}
	out := make([]WireEdge, 0, 8)
	ok := r.Array(func() bool {
		var e WireEdge
		var seen uint32
		ok := r.Object(func(key []byte) bool {
			switch string(key) {
			case "s":
				return codec.Once(&seen, 1) && r.Int(&e.S)
			case "t":
				return codec.Once(&seen, 2) && r.Int(&e.T)
			case "prob":
				return codec.Once(&seen, 4) && r.Float(&e.Prob)
			}
			return false
		})
		out = append(out, e)
		return ok
	})
	*dst = out
	return ok
}

func (it *BatchExecItem) readCanonical(r *codec.Reader) bool {
	var seen uint32
	return r.Object(func(key []byte) bool {
		switch string(key) {
		case "k":
			return codec.Once(&seen, 1) && r.Int(&it.K)
		case "genes":
			return codec.Once(&seen, 2) && r.Int32s(&it.Genes)
		case "edges":
			return codec.Once(&seen, 4) && readWireEdges(r, &it.Edges)
		case "params":
			return codec.Once(&seen, 8) && it.Params.readCanonical(r)
		case "plan":
			return codec.Once(&seen, 16) && r.RawValue((*[]byte)(&it.Plan))
		}
		return false
	})
}

// ReadCanonical reads the envelope in one pass (codec.Canonical).
func (q *BatchExecRequest) ReadCanonical(r *codec.Reader) bool {
	var seen uint32
	return r.Object(func(key []byte) bool {
		switch string(key) {
		case "proto":
			return codec.Once(&seen, 1<<0) && r.Int(&q.Proto)
		case "queryId":
			return codec.Once(&seen, 1<<1) && r.String(&q.QueryID)
		case "numShards":
			return codec.Once(&seen, 1<<2) && r.Int(&q.NumShards)
		case "shard":
			return codec.Once(&seen, 1<<3) && r.Int(&q.Shard)
		case "itemTimeoutMs":
			return codec.Once(&seen, 1<<4) && r.Int64(&q.ItemTimeoutMs)
		case "items":
			if !codec.Once(&seen, 1<<5) {
				return false
			}
			q.Items = make([]BatchExecItem, 0, 8)
			return r.Array(func() bool {
				q.Items = append(q.Items, BatchExecItem{})
				return q.Items[len(q.Items)-1].readCanonical(r)
			})
		}
		return false
	})
}

// ReadCanonical reads the mutation body in one pass (codec.Canonical).
func (m *MutateRequest) ReadCanonical(r *codec.Reader) bool {
	var seen uint32
	return r.Object(func(key []byte) bool {
		switch string(key) {
		case "proto":
			return codec.Once(&seen, 1<<0) && r.Int(&m.Proto)
		case "op":
			return codec.Once(&seen, 1<<1) && r.String(&m.Op)
		case "source":
			return codec.Once(&seen, 1<<2) && r.Int(&m.Source)
		case "shard":
			return codec.Once(&seen, 1<<3) && r.Int(&m.Shard)
		case "numShards":
			return codec.Once(&seen, 1<<4) && r.Int(&m.NumShards)
		case "genes":
			return codec.Once(&seen, 1<<5) && r.Int32s(&m.Genes)
		case "columns":
			return codec.Once(&seen, 1<<6) && r.Columns(&m.Columns)
		}
		return false
	})
}

func (a *AcceptFrame) readCanonical(r *codec.Reader) bool {
	var seen uint32
	return r.Object(func(key []byte) bool {
		switch string(key) {
		case "item":
			return codec.Once(&seen, 1) && r.Int(&a.Item)
		case "shard":
			return codec.Once(&seen, 2) && r.Int(&a.Shard)
		case "source":
			return codec.Once(&seen, 4) && r.Int(&a.Source)
		case "prob":
			return codec.Once(&seen, 8) && r.Float(&a.Prob)
		}
		return false
	})
}

func (a *WireAnswer) readCanonical(r *codec.Reader) bool {
	var seen uint32
	return r.Object(func(key []byte) bool {
		switch string(key) {
		case "source":
			return codec.Once(&seen, 1) && r.Int(&a.Source)
		case "prob":
			return codec.Once(&seen, 2) && r.Float(&a.Prob)
		case "genes":
			return codec.Once(&seen, 4) && r.Int32s(&a.Genes)
		case "edges":
			return codec.Once(&seen, 8) && readWireEdges(r, &a.Edges)
		}
		return false
	})
}

func (st *WireStats) readCanonical(r *codec.Reader) bool {
	var seen uint32
	return r.Object(func(key []byte) bool {
		switch string(key) {
		case "traversalNs":
			return codec.Once(&seen, 1<<0) && r.Int64(&st.TraversalNs)
		case "refinementNs":
			return codec.Once(&seen, 1<<1) && r.Int64(&st.RefinementNs)
		case "markovNs":
			return codec.Once(&seen, 1<<2) && r.Int64(&st.MarkovNs)
		case "monteCarloNs":
			return codec.Once(&seen, 1<<3) && r.Int64(&st.MonteCarloNs)
		case "totalNs":
			return codec.Once(&seen, 1<<4) && r.Int64(&st.TotalNs)
		case "ioCost":
			return codec.Once(&seen, 1<<5) && r.Uint64(&st.IOCost)
		case "ioHits":
			return codec.Once(&seen, 1<<6) && r.Uint64(&st.IOHits)
		case "nodePairsVisited":
			return codec.Once(&seen, 1<<7) && r.Int(&st.NodePairsVisited)
		case "nodePairsPruned":
			return codec.Once(&seen, 1<<8) && r.Int(&st.NodePairsPruned)
		case "pointPairsChecked":
			return codec.Once(&seen, 1<<9) && r.Int(&st.PointPairsChecked)
		case "pointPairsPruned":
			return codec.Once(&seen, 1<<10) && r.Int(&st.PointPairsPruned)
		case "candidateGenes":
			return codec.Once(&seen, 1<<11) && r.Int(&st.CandidateGenes)
		case "candidateMatrices":
			return codec.Once(&seen, 1<<12) && r.Int(&st.CandidateMatrices)
		case "matricesPrunedL5":
			return codec.Once(&seen, 1<<13) && r.Int(&st.MatricesPrunedL5)
		case "answers":
			return codec.Once(&seen, 1<<14) && r.Int(&st.Answers)
		case "cacheHits":
			return codec.Once(&seen, 1<<15) && r.Int(&st.CacheHits)
		case "cacheMisses":
			return codec.Once(&seen, 1<<16) && r.Int(&st.CacheMisses)
		case "draws":
			return codec.Once(&seen, 1<<17) && r.Int(&st.Draws)
		}
		return false
	})
}

func (f *BatchItemFrame) readCanonical(r *codec.Reader) bool {
	var seen uint32
	return r.Object(func(key []byte) bool {
		switch string(key) {
		case "index":
			return codec.Once(&seen, 1) && r.Int(&f.Index)
		case "shard":
			return codec.Once(&seen, 2) && r.Int(&f.Shard)
		case "answers":
			if !codec.Once(&seen, 4) {
				return false
			}
			f.Answers = make([]WireAnswer, 0, 8)
			return r.Array(func() bool {
				f.Answers = append(f.Answers, WireAnswer{})
				return f.Answers[len(f.Answers)-1].readCanonical(r)
			})
		case "stats":
			return codec.Once(&seen, 8) && f.Stats.readCanonical(r)
		case "error":
			return codec.Once(&seen, 16) && r.String(&f.Error)
		}
		return false
	})
}

// ReadCanonical reads one response frame in one pass (codec.Canonical).
func (f *BatchExecFrame) ReadCanonical(r *codec.Reader) bool {
	var seen uint32
	return r.Object(func(key []byte) bool {
		switch string(key) {
		case "accept":
			f.Accept = new(AcceptFrame)
			return codec.Once(&seen, 1) && f.Accept.readCanonical(r)
		case "item":
			f.Item = new(BatchItemFrame)
			return codec.Once(&seen, 2) && f.Item.readCanonical(r)
		case "done":
			return codec.Once(&seen, 4) && r.Bool(&f.Done)
		case "error":
			return codec.Once(&seen, 8) && r.String(&f.Error)
		}
		return false
	})
}

func appendWireParams(e *codec.Encoder, p *WireParams) {
	e.Raw(`{"gamma":`)
	e.Float(p.Gamma)
	e.Raw(`,"alpha":`)
	e.Float(p.Alpha)
	if p.Samples != 0 {
		e.Raw(`,"samples":`)
		e.Int(p.Samples)
	}
	e.Raw(`,"seed":`)
	e.Uint64(p.Seed)
	if p.Analytic {
		e.Raw(`,"analytic":true`)
	}
	if p.OneSided {
		e.Raw(`,"oneSided":true`)
	}
	if p.Workers != 0 {
		e.Raw(`,"workers":`)
		e.Int(p.Workers)
	}
	e.Byte('}')
}

func appendWireEdges(e *codec.Encoder, es []WireEdge) {
	if es == nil {
		e.Raw("null")
		return
	}
	e.Byte('[')
	for i, ed := range es {
		if i > 0 {
			e.Byte(',')
		}
		e.Raw(`{"s":`)
		e.Int(ed.S)
		e.Raw(`,"t":`)
		e.Int(ed.T)
		e.Raw(`,"prob":`)
		e.Float(ed.Prob)
		e.Byte('}')
	}
	e.Byte(']')
}

// AppendBatchExecRequest writes the envelope as json.Marshal does.
func AppendBatchExecRequest(b []byte, q *BatchExecRequest) ([]byte, bool) {
	e := codec.NewEncoder(b)
	e.Raw(`{"proto":`)
	e.Int(q.Proto)
	e.Raw(`,"queryId":`)
	e.Str(q.QueryID)
	e.Raw(`,"numShards":`)
	e.Int(q.NumShards)
	e.Raw(`,"shard":`)
	e.Int(q.Shard)
	if q.ItemTimeoutMs != 0 {
		e.Raw(`,"itemTimeoutMs":`)
		e.Int64(q.ItemTimeoutMs)
	}
	e.Raw(`,"items":`)
	if q.Items == nil {
		e.Raw("null")
	} else {
		e.Byte('[')
		for i := range q.Items {
			it := &q.Items[i]
			if i > 0 {
				e.Byte(',')
			}
			e.Byte('{')
			if it.K != 0 {
				e.Raw(`"k":`)
				e.Int(it.K)
				e.Byte(',')
			}
			e.Raw(`"genes":`)
			e.Int32s(it.Genes)
			if len(it.Edges) > 0 {
				e.Raw(`,"edges":`)
				appendWireEdges(&e, it.Edges)
			}
			e.Raw(`,"params":`)
			appendWireParams(&e, &it.Params)
			if len(it.Plan) > 0 {
				e.Raw(`,"plan":`)
				e.RawValue(it.Plan)
			}
			e.Byte('}')
		}
		e.Byte(']')
	}
	e.Byte('}')
	return e.Result()
}

// AppendMutateRequest writes the mutation body as json.Marshal does.
func AppendMutateRequest(b []byte, m *MutateRequest) ([]byte, bool) {
	e := codec.NewEncoder(b)
	e.Raw(`{"proto":`)
	e.Int(m.Proto)
	e.Raw(`,"op":`)
	e.Str(m.Op)
	e.Raw(`,"source":`)
	e.Int(m.Source)
	e.Raw(`,"shard":`)
	e.Int(m.Shard)
	e.Raw(`,"numShards":`)
	e.Int(m.NumShards)
	if len(m.Genes) > 0 {
		e.Raw(`,"genes":`)
		e.Int32s(m.Genes)
	}
	if len(m.Columns) > 0 {
		e.Raw(`,"columns":`)
		e.Columns(m.Columns)
	}
	e.Byte('}')
	return e.Result()
}

func appendWireStats(e *codec.Encoder, st *WireStats) {
	start := e.Len()
	int64Field := func(name string, v int64) {
		if v != 0 {
			e.Raw(name)
			e.Int64(v)
		}
	}
	int64Field(`,"traversalNs":`, st.TraversalNs)
	int64Field(`,"refinementNs":`, st.RefinementNs)
	int64Field(`,"markovNs":`, st.MarkovNs)
	int64Field(`,"monteCarloNs":`, st.MonteCarloNs)
	int64Field(`,"totalNs":`, st.TotalNs)
	if st.IOCost != 0 {
		e.Raw(`,"ioCost":`)
		e.Uint64(st.IOCost)
	}
	if st.IOHits != 0 {
		e.Raw(`,"ioHits":`)
		e.Uint64(st.IOHits)
	}
	int64Field(`,"nodePairsVisited":`, int64(st.NodePairsVisited))
	int64Field(`,"nodePairsPruned":`, int64(st.NodePairsPruned))
	int64Field(`,"pointPairsChecked":`, int64(st.PointPairsChecked))
	int64Field(`,"pointPairsPruned":`, int64(st.PointPairsPruned))
	int64Field(`,"candidateGenes":`, int64(st.CandidateGenes))
	int64Field(`,"candidateMatrices":`, int64(st.CandidateMatrices))
	int64Field(`,"matricesPrunedL5":`, int64(st.MatricesPrunedL5))
	int64Field(`,"answers":`, int64(st.Answers))
	int64Field(`,"cacheHits":`, int64(st.CacheHits))
	int64Field(`,"cacheMisses":`, int64(st.CacheMisses))
	int64Field(`,"draws":`, int64(st.Draws))
	e.CloseObject(start)
}

func appendWireAnswer(e *codec.Encoder, a *WireAnswer) {
	e.Raw(`{"source":`)
	e.Int(a.Source)
	e.Raw(`,"prob":`)
	e.Float(a.Prob)
	e.Raw(`,"genes":`)
	e.Int32s(a.Genes)
	e.Raw(`,"edges":`)
	appendWireEdges(e, a.Edges)
	e.Byte('}')
}

// AppendBatchExecFrame writes one /cluster/exec response frame as
// json.Encoder does, newline included.
func AppendBatchExecFrame(b []byte, f *BatchExecFrame) ([]byte, bool) {
	e := codec.NewEncoder(b)
	start := e.Len()
	if a := f.Accept; a != nil {
		e.Raw(`,"accept":{"item":`)
		e.Int(a.Item)
		e.Raw(`,"shard":`)
		e.Int(a.Shard)
		e.Raw(`,"source":`)
		e.Int(a.Source)
		e.Raw(`,"prob":`)
		e.Float(a.Prob)
		e.Byte('}')
	}
	if it := f.Item; it != nil {
		e.Raw(`,"item":{"index":`)
		e.Int(it.Index)
		e.Raw(`,"shard":`)
		e.Int(it.Shard)
		if len(it.Answers) > 0 {
			e.Raw(`,"answers":[`)
			for i := range it.Answers {
				if i > 0 {
					e.Byte(',')
				}
				appendWireAnswer(&e, &it.Answers[i])
			}
			e.Byte(']')
		}
		e.Raw(`,"stats":`)
		appendWireStats(&e, &it.Stats)
		if it.Error != "" {
			e.Raw(`,"error":`)
			e.Str(it.Error)
		}
		e.Byte('}')
	}
	if f.Done {
		e.Raw(`,"done":true`)
	}
	if f.Error != "" {
		e.Raw(`,"error":`)
		e.Str(f.Error)
	}
	e.CloseObject(start)
	e.Byte('\n')
	return e.Result()
}
