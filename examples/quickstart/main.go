// Quickstart: run a streaming video LLM session with ReSV retrieval.
//
// A synthetic video stream is encoded frame by frame and pushed through the
// functional transformer in iterative-prefill mode with ReSV selecting which
// past KV entries each layer attends to. At the end we ask a question and
// print the retrieval statistics ReSV accumulated.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"vrex/internal/core"
	"vrex/internal/model"
	"vrex/internal/vision"
)

func main() {
	// 1. A small functional model (Llama-like decoder) and a ReSV retriever
	//    with the paper's hyperparameters (N_hp=32, Th_hd=7, Th_wics=0.3).
	mcfg := model.DefaultConfig()
	llm := model.New(mcfg)
	resv := core.New(mcfg, core.DefaultConfig())

	// 2. A synthetic video stream and the vision tower + projector.
	scfg := vision.DefaultStreamConfig()
	stream := vision.NewStream(scfg)
	enc := vision.NewEncoder(scfg.TokensPerFrame, scfg.PixelDim, 96, 11)
	proj := vision.NewProjector(96, 2*mcfg.Dim, mcfg.Dim, 12)

	// 3. Iterative prefill: one frame at a time (Fig. 3 of the paper).
	const frames = 24
	for i := 0; i < frames; i++ {
		frame := stream.Next()
		embeds := proj.Project(enc.Encode(frame))
		llm.Forward(embeds, resv, model.StageFrame, false)
	}
	fmt.Printf("processed %d frames -> %d cached tokens per layer\n", frames, llm.Pos())

	// 4. Ask a question: reuse the last frame's content as a query stand-in.
	frame := stream.Next()
	question := proj.Project(enc.Encode(frame))
	out := llm.Forward(question, resv, model.StageText, true)
	fmt.Printf("question processed, hidden state %dx%d\n", out.Hidden.Rows, out.Hidden.Cols)

	// 5. What did ReSV do?
	st := resv.Stats()
	fmt.Printf("frame-stage retrieval ratio : %5.1f%%\n", 100*st.Frame.RetrievalRatio())
	fmt.Printf("text-stage retrieval ratio  : %5.1f%%\n", 100*st.Text.RetrievalRatio())
	fmt.Printf("WTU early-exit examined     : %5.1f%% of entries\n", 100*st.Frame.AvgExaminedFraction())
	fmt.Printf("avg tokens per hash cluster : %5.1f\n", resv.HCTable(0).AvgTokensPerCluster())
}
