| 68020 code for main
main_entry:
    moveq #0,d0                     
    movl (_n),d1                    
    cmpl d1,#0                      
    jge L2                          
L3:
    fmoved (___fc0),fp0             
    fmoved (___fc1),fp1             
    fmoved (___fc2),fp2             
    fmoved (___fc3),fp3             
    movl (_n),d1                    
    lea (_a),a0                      | strength-reduce pointer
    lea (_b),a1                      | strength-reduce pointer
L0:
    movl d0,d2; andl #31,d2         
    fmovel d2,fp4                   
    fmulx fp1,fp4                   
    faddx fp0,fp4                   
    fmoved fp4,a0@+                 
    movl d0,d2; andl #7,d2          
    fmovel d2,fp4                   
    fmulx fp3,fp4                   
    fnegx fp4; faddx fp2,fp4        
    fmoved fp4,a1@+                 
    addql #1,d0                     
    cmpl d1,d0                      
    jlt L0                          
L4:
L2:
    fmovex #0.0,fp0                 
    moveq #0,d0                     
    movl (_n),d1                    
    cmpl d1,#0                      
    jge L7                          
L8:
    movl (_n),d1                    
    lea (_a),a0                      | strength-reduce pointer
    lea (_b),a1                      | strength-reduce pointer
L5:
    fmoved a0@+,fp1                 
    fmoved a1@+,fp2                 
    fmulx fp2,fp1                   
    faddx fp1,fp0                   
    addql #1,d0                     
    cmpl d1,d0                      
    jlt L5                          
L9:
L7:
    fmovel fp0,d0                   
    rts                             

